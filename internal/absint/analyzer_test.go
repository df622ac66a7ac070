package absint

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/chmc"
	"repro/internal/progen"
	"repro/internal/program"
)

// testConfig is a small cache that random programs exercise thoroughly:
// 4 sets, 2 ways, 8-byte blocks (2 instructions per block).
func testConfig() cache.Config {
	return cache.Config{Sets: 4, Ways: 2, BlockBytes: 8, HitLatency: 1, MemLatency: 10}
}

func TestComputeRefs(t *testing.T) {
	cfg := testConfig()
	b := program.New("refs")
	b.Func("main").Ops(5) // + return = 6 instructions = 3 memory blocks
	p := b.MustBuild()
	perBB, all := ComputeRefs(p, cfg)
	if len(all) != 3 {
		t.Fatalf("total refs = %d, want 3", len(all))
	}
	refs := perBB[p.Entry]
	if len(refs) != 3 {
		t.Fatalf("entry refs = %d, want 3", len(refs))
	}
	for i, r := range refs {
		if r.NumInstr != 2 {
			t.Errorf("ref %d NumInstr = %d, want 2", i, r.NumInstr)
		}
		if r.Block != uint32(i) {
			t.Errorf("ref %d block = %d, want %d", i, r.Block, i)
		}
		if r.Set != i%cfg.Sets {
			t.Errorf("ref %d set = %d, want %d", i, r.Set, i%cfg.Sets)
		}
		if r.Global != i || r.Index != i || r.BB != p.Entry {
			t.Errorf("ref %d indices wrong: %+v", i, r)
		}
	}
}

func TestStraightLineClassification(t *testing.T) {
	cfg := testConfig()
	b := program.New("straight")
	b.Func("main").Ops(7) // 8 instructions, 4 blocks, sets 0..3
	p := b.MustBuild()
	a := New(p, cfg)
	classes := a.ClassifyAll()
	// Cold cache, no reuse: every ref is a first access executing once.
	for _, r := range a.Refs() {
		if c := classes[r.Global]; c != chmc.FirstMiss {
			t.Errorf("ref %d (block %d): class %v, want FM (single cold access)", r.Global, r.Block, c)
		}
	}
}

func TestLoopFitsInCache(t *testing.T) {
	cfg := testConfig() // capacity: 8 blocks of 8B = 64B = 16 instructions
	b := program.New("fits")
	b.Func("main").Loop(10, func(l *program.Body) { l.Ops(3) })
	p := b.MustBuild()
	a := New(p, cfg)
	classes := a.ClassifyAll()
	// The whole program is ~8 instructions = 4 blocks in 4 distinct sets;
	// everything fits, so all refs must be FM (miss once, then hit).
	for _, r := range a.Refs() {
		if c := classes[r.Global]; c != chmc.FirstMiss && c != chmc.AlwaysHit {
			t.Errorf("ref %d (bb %d, block %d): class %v, want FM or AH", r.Global, r.BB, r.Block, c)
		}
	}
	// At least one loop-body ref must be classified (not all NC).
	found := false
	for _, r := range a.Refs() {
		if classes[r.Global] == chmc.FirstMiss {
			found = true
		}
	}
	if !found {
		t.Error("no FM classification found in a cache-resident loop")
	}
}

func TestLoopThrashing(t *testing.T) {
	// 2-way sets; a loop body spanning 3+ blocks of the same set thrashes.
	cfg := cache.Config{Sets: 1, Ways: 2, BlockBytes: 8, HitLatency: 1, MemLatency: 10}
	b := program.New("thrash")
	// Body of ~24 instructions = 12 blocks, all in the single set.
	b.Func("main").Loop(10, func(l *program.Body) { l.Ops(24) })
	p := b.MustBuild()
	a := New(p, cfg)
	classes := a.ClassifyAll()
	// Refs inside the loop cannot be FM or AH (the LRU stack of the only
	// set is overwhelmed each iteration).
	loop := p.Loops[0]
	inLoop := make(map[int]bool)
	for _, id := range loop.Blocks {
		inLoop[id] = true
	}
	nBad := 0
	for _, r := range a.Refs() {
		if !inLoop[r.BB] || r.BB == loop.Header {
			continue
		}
		if c := classes[r.Global]; c == chmc.AlwaysHit || c == chmc.FirstMiss {
			nBad++
			t.Errorf("thrashing ref %d (bb %d block %d) classified %v", r.Global, r.BB, r.Block, c)
		}
	}
	_ = nBad
}

func TestDegradedClassificationMonotone(t *testing.T) {
	cfg := cache.Config{Sets: 2, Ways: 4, BlockBytes: 8, HitLatency: 1, MemLatency: 10}
	b := program.New("degrade")
	b.Func("main").Loop(8, func(l *program.Body) { l.Ops(10) }).Loop(4, func(l *program.Body) { l.Ops(4) })
	p := b.MustBuild()
	a := New(p, cfg)
	for set := 0; set < cfg.Sets; set++ {
		prev := classifySetAt(a, set, cfg.Ways)
		for assoc := cfg.Ways - 1; assoc >= 0; assoc-- {
			cur := classifySetAt(a, set, assoc)
			for _, r := range a.Refs() {
				if r.Set != set {
					continue
				}
				if costRank(cur[r.Global]) < costRank(prev[r.Global]) {
					t.Errorf("set %d assoc %d ref %d: %v better than %v at higher assoc",
						set, assoc, r.Global, cur[r.Global], prev[r.Global])
				}
			}
			prev = cur
		}
	}
}

// costRank orders classifications by their per-execution cost in the
// timing model, AH < FM < AM = NC. Removing ways can only move a
// classification up this order.
func costRank(c chmc.Class) int {
	switch c {
	case chmc.AlwaysHit:
		return 0
	case chmc.FirstMiss:
		return 1
	case chmc.AlwaysMiss, chmc.NotClassified:
		return 2
	default:
		panic(fmt.Sprintf("costRank of invalid class %d", c))
	}
}

// classifySetAt classifies one set at one associativity into a fresh
// buffer whose entries for other sets are NotClassified.
func classifySetAt(a *Analyzer, set, assoc int) []chmc.Class {
	out := notClassified(len(a.Refs()))
	a.ClassifySetByAssocInto(atAssoc(out, assoc), set)
	return out
}

func TestZeroAssocAllMiss(t *testing.T) {
	cfg := testConfig()
	p := progen.Random(rand.New(rand.NewSource(7)), progen.DefaultParams())
	a := New(p, cfg)
	classes := classifySetAt(a, 2, 0)
	for _, r := range a.Refs() {
		if r.Set == 2 && classes[r.Global] != chmc.AlwaysMiss {
			t.Errorf("ref %d: class %v, want AM at associativity 0", r.Global, classes[r.Global])
		}
	}
}

func TestSRBSequentialHits(t *testing.T) {
	cfg := testConfig() // 2 instructions per block
	b := program.New("srbseq")
	// main: 3 ops + return = 4 instructions in 2 blocks; single basic
	// block, so the second block's ref follows the first consecutively...
	b.Func("main").Ops(3)
	p := b.MustBuild()
	a := New(p, cfg)
	hit := a.ClassifySRB()
	// Within a single basic block each ref accesses a distinct memory
	// block, so no ref repeats the previous block: no SRB hits at ref
	// granularity here.
	for _, r := range a.Refs() {
		if hit[r.Global] {
			t.Errorf("ref %d (block %d) claimed SRB-hit in straight-line distinct-block stream", r.Global, r.Block)
		}
	}
}

func TestSRBCrossBlockContinuation(t *testing.T) {
	cfg := testConfig() // 2 instructions per memory block
	b := program.New("srbcont")
	// if(cond){1 op}; join. Layout: [branch op][then op][join: ...].
	// With 2-instruction memory blocks, some block boundary will split a
	// memory block across two basic blocks, making the continuation ref
	// SRB-guaranteed... but only when all predecessors end in the same
	// memory block. We verify the invariant structurally instead of
	// pinning specific refs: an SRB-hit ref's memory block must equal the
	// last memory block of every predecessor path.
	b.Func("main").Ops(1).If(func(t *program.Body) { t.Ops(2) }, nil).Ops(3)
	p := b.MustBuild()
	a := New(p, cfg)
	hit := a.ClassifySRB()
	for _, r := range a.Refs() {
		if !hit[r.Global] {
			continue
		}
		// The ref must not be the first ref of a block whose
		// predecessors end in different memory blocks.
		if r.Index > 0 {
			t.Errorf("ref %d: SRB hit claimed for a non-first ref of its bb (distinct blocks within bb)", r.Global)
			continue
		}
		for _, pr := range p.Blocks[r.BB].Preds {
			prRefs := a.RefsOf(pr)
			if len(prRefs) == 0 {
				continue
			}
			if prRefs[len(prRefs)-1].Block != r.Block {
				t.Errorf("ref %d: SRB hit but pred bb %d ends in block %d, ref block %d",
					r.Global, pr, prRefs[len(prRefs)-1].Block, r.Block)
			}
		}
	}
}

// attributeTrace replays a block trace at reference granularity on a
// concrete simulator and returns hit/miss counts per global ref.
func attributeTrace(a *Analyzer, sim *cache.Sim, blocks []int) (hits, misses []int) {
	hits = make([]int, len(a.Refs()))
	misses = make([]int, len(a.Refs()))
	for _, bb := range blocks {
		for _, r := range a.RefsOf(bb) {
			first := r.Block * uint32(a.Config().BlockBytes)
			if sim.Access(first) {
				hits[r.Global]++
			} else {
				misses[r.Global]++
			}
		}
	}
	return hits, misses
}

// TestClassificationSoundVsSimulation is the central property test: on
// random programs and random paths, AlwaysHit references never miss,
// FirstMiss references miss at most once, and AlwaysMiss references never
// hit — against a concrete LRU simulation of the fault-free cache.
func TestClassificationSoundVsSimulation(t *testing.T) {
	cfg := testConfig()
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := progen.Random(rng, progen.DefaultParams())
		a := New(p, cfg)
		classes := a.ClassifyAll()
		for path := 0; path < 4; path++ {
			blocks, err := p.TraceBlocks(program.RandomChooser(rng), 200000)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			sim := cache.NewSim(cfg, cache.MechanismNone, cache.NewFaultMap(cfg.Sets, cfg.Ways))
			hits, misses := attributeTrace(a, sim, blocks)
			for _, r := range a.Refs() {
				switch classes[r.Global] {
				case chmc.AlwaysHit:
					if misses[r.Global] > 0 {
						t.Fatalf("seed %d path %d: AH ref %d (bb %d, block %d) missed %d times",
							seed, path, r.Global, r.BB, r.Block, misses[r.Global])
					}
				case chmc.FirstMiss:
					if misses[r.Global] > 1 {
						t.Fatalf("seed %d path %d: FM ref %d (bb %d, block %d) missed %d times",
							seed, path, r.Global, r.BB, r.Block, misses[r.Global])
					}
				case chmc.AlwaysMiss:
					if hits[r.Global] > 0 {
						t.Fatalf("seed %d path %d: AM ref %d (bb %d, block %d) hit %d times",
							seed, path, r.Global, r.BB, r.Block, hits[r.Global])
					}
				}
			}
		}
	}
}

// TestDegradedClassificationSoundVsSimulation repeats the soundness check
// with faulty ways disabled in one set, using the per-set re-analysis at
// reduced associativity that the FMM relies on.
func TestDegradedClassificationSoundVsSimulation(t *testing.T) {
	cfg := testConfig()
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		p := progen.Random(rng, progen.DefaultParams())
		a := New(p, cfg)
		set := rng.Intn(cfg.Sets)
		f := 1 + rng.Intn(cfg.Ways) // 1..W faulty ways
		classes := classifySetAt(a, set, cfg.Ways-f)

		fm := cache.NewFaultMap(cfg.Sets, cfg.Ways)
		for w := 0; w < f; w++ {
			fm[set][w] = true
		}
		blocks, err := p.TraceBlocks(program.RandomChooser(rng), 200000)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sim := cache.NewSim(cfg, cache.MechanismNone, fm)
		hits, misses := attributeTrace(a, sim, blocks)
		for _, r := range a.Refs() {
			if r.Set != set {
				continue
			}
			switch classes[r.Global] {
			case chmc.AlwaysHit:
				if misses[r.Global] > 0 {
					t.Fatalf("seed %d: degraded AH ref %d missed", seed, r.Global)
				}
			case chmc.FirstMiss:
				if misses[r.Global] > 1 {
					t.Fatalf("seed %d: degraded FM ref %d missed %d times", seed, r.Global, misses[r.Global])
				}
			case chmc.AlwaysMiss:
				if hits[r.Global] > 0 {
					t.Fatalf("seed %d: degraded AM ref %d hit", seed, r.Global)
				}
			}
		}
	}
}

// TestSRBSoundVsSimulation checks that SRB-guaranteed-hit references
// indeed always hit when their set is entirely faulty and the SRB is the
// only storage, at instruction granularity.
func TestSRBSoundVsSimulation(t *testing.T) {
	cfg := testConfig()
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(2000 + seed))
		p := progen.Random(rng, progen.DefaultParams())
		a := New(p, cfg)
		srbHit := a.ClassifySRB()

		// All sets faulty: every access goes through the SRB.
		fm := cache.NewFaultMap(cfg.Sets, cfg.Ways)
		for s := range fm {
			for w := range fm[s] {
				fm[s][w] = true
			}
		}
		blocks, err := p.TraceBlocks(program.RandomChooser(rng), 200000)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sim := cache.NewSim(cfg, cache.MechanismSRB, fm)
		for _, bb := range blocks {
			for _, r := range a.RefsOf(bb) {
				for i := 0; i < r.NumInstr; i++ {
					// Instruction addresses covered by the ref.
					base := r.Block*uint32(cfg.BlockBytes) + uint32(i*program.InstrBytes)
					hit := sim.Access(base)
					if i == 0 && srbHit[r.Global] && !hit {
						t.Fatalf("seed %d: SRB-AH ref %d (bb %d block %d) missed", seed, r.Global, r.BB, r.Block)
					}
					if i > 0 && !hit {
						t.Fatalf("seed %d: intra-block instruction missed in SRB", seed)
					}
				}
			}
		}
	}
}
