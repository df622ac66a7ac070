package progen

import (
	"math/rand"
	"testing"
)

func TestRandomProgramsValid(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		p := Random(rand.New(rand.NewSource(seed)), DefaultParams())
		if err := p.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		first := func(_ int, succs []int) int { return succs[0] }
		if _, err := p.Trace(first, 10_000_000); err != nil {
			t.Fatalf("seed %d: trace: %v", seed, err)
		}
	}
}

func TestDeterministicBySeed(t *testing.T) {
	a := Random(rand.New(rand.NewSource(42)), DefaultParams())
	b := Random(rand.New(rand.NewSource(42)), DefaultParams())
	if a.Name != b.Name || len(a.Blocks) != len(b.Blocks) || len(a.Loops) != len(b.Loops) {
		t.Fatal("same seed produced different programs")
	}
	for i := range a.Blocks {
		if a.Blocks[i].Addr != b.Blocks[i].Addr || a.Blocks[i].NumInstr != b.Blocks[i].NumInstr {
			t.Fatalf("block %d differs between identical seeds", i)
		}
	}
}

func TestParamsRespected(t *testing.T) {
	params := Params{MaxDepth: 1, MaxItems: 2, MaxOps: 3, MaxBound: 2, Helpers: 0}
	for seed := int64(0); seed < 50; seed++ {
		p := Random(rand.New(rand.NewSource(seed)), params)
		for _, l := range p.Loops {
			if l.Bound > 2 {
				t.Fatalf("seed %d: loop bound %d exceeds MaxBound 2", seed, l.Bound)
			}
		}
		if len(p.Funcs) != 1 {
			t.Fatalf("seed %d: %d functions with Helpers=0", seed, len(p.Funcs))
		}
	}
}

func TestDegenerateParamsClamped(t *testing.T) {
	p := Random(rand.New(rand.NewSource(1)), Params{})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestVarietyOfShapes(t *testing.T) {
	// Across many seeds the generator must produce loops, branches and
	// calls (otherwise the property tests exercise too little).
	loops, branches, multiFunc := 0, 0, 0
	for seed := int64(0); seed < 60; seed++ {
		p := Random(rand.New(rand.NewSource(seed)), DefaultParams())
		if len(p.Loops) > 0 {
			loops++
		}
		for _, b := range p.Blocks {
			if len(b.Succs) > 1 && b.Loop < 0 {
				branches++
				break
			}
		}
		inlined := 0
		for _, f := range p.Funcs {
			inlined += f.NumInlined
		}
		if inlined > 1 {
			multiFunc++
		}
	}
	if loops < 30 {
		t.Errorf("only %d/60 programs contain loops", loops)
	}
	if branches < 20 {
		t.Errorf("only %d/60 programs contain non-loop branches", branches)
	}
	if multiFunc < 10 {
		t.Errorf("only %d/60 programs instantiate callees", multiFunc)
	}
}
