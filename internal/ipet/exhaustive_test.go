package ipet

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/progen"
	"repro/internal/program"
)

// TestILPMatchesExhaustive is the strongest IPET validation: on random
// small programs with random non-negative weights, the ILP maximum must
// equal the explicit path-enumeration maximum exactly.
func TestILPMatchesExhaustive(t *testing.T) {
	params := progen.Params{MaxDepth: 2, MaxItems: 2, MaxOps: 4, MaxBound: 3, Helpers: 1}
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := progen.Random(rng, params)
		sys, err := NewSystem(p)
		if err != nil {
			t.Fatal(err)
		}
		weights := make([]float64, len(p.Blocks))
		for i := range weights {
			weights[i] = float64(rng.Intn(10))
		}
		ilp, err := sys.MaximizeBlockWeights(weights, 0)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		exact, err := ExhaustiveMax(p, weights, 5_000_000)
		if err != nil {
			t.Logf("seed %d: enumeration too large, skipped (%v)", seed, err)
			continue
		}
		if math.Abs(ilp.Objective-exact) > 1e-6 {
			t.Errorf("seed %d (%s): ILP %v != exhaustive %v", seed, p.Name, ilp.Objective, exact)
		}
	}
}

// TestExhaustiveHandCases pins the enumeration semantics on hand-built
// programs.
func TestExhaustiveHandCases(t *testing.T) {
	// Loop with bound 3, weight 1 on the body: maximum is 3.
	b := program.New("loop3")
	b.Func("main").Loop(3, func(l *program.Body) { l.Ops(1) })
	p := b.MustBuild()
	w := make([]float64, len(p.Blocks))
	w[p.Loops[0].BodySucc] = 1
	got, err := ExhaustiveMax(p, w, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Errorf("loop body max = %v, want 3", got)
	}

	// Branch: weight 5 on then, 9 on else; maximum is 9.
	b2 := program.New("branch")
	b2.Func("main").If(func(then *program.Body) { then.Ops(1) },
		func(els *program.Body) { els.Ops(1) })
	p2 := b2.MustBuild()
	w2 := make([]float64, len(p2.Blocks))
	cond := p2.Entry
	w2[p2.Blocks[cond].Succs[0]] = 5
	w2[p2.Blocks[cond].Succs[1]] = 9
	got2, err := ExhaustiveMax(p2, w2, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if got2 != 9 {
		t.Errorf("branch max = %v, want 9", got2)
	}
}

func TestExhaustiveBudget(t *testing.T) {
	b := program.New("big")
	b.Func("main").Loop(10, func(o *program.Body) {
		o.Loop(10, func(i *program.Body) {
			i.If(func(t *program.Body) { t.Ops(1) }, func(e *program.Body) { e.Ops(1) })
		})
	})
	p := b.MustBuild()
	w := make([]float64, len(p.Blocks))
	if _, err := ExhaustiveMax(p, w, 100); err == nil {
		t.Error("tiny budget not enforced")
	}
}

func TestExhaustiveWeightLenCheck(t *testing.T) {
	b := program.New("x")
	b.Func("main").Ops(1)
	p := b.MustBuild()
	if _, err := ExhaustiveMax(p, []float64{1, 2, 3, 4, 5, 6, 7}, 100); err == nil && len(p.Blocks) != 7 {
		t.Error("weight length mismatch not rejected")
	}
}
