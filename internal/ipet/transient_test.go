package ipet

import (
	"math/rand"
	"testing"

	"repro/internal/absint"
	"repro/internal/cache"
	"repro/internal/chmc"
	"repro/internal/progen"
)

// TestComputeHitBoundsWorkersByteIdentical: the per-set hit bounds are
// byte-identical for every worker count — each set's ILP is solved on a
// private simplex restored to the same pristine basis, exactly like the
// FMM solves.
func TestComputeHitBoundsWorkersByteIdentical(t *testing.T) {
	cfg := cache.Config{Sets: 8, Ways: 2, BlockBytes: 8, HitLatency: 1, MemLatency: 10}
	for seed := int64(0); seed < 6; seed++ {
		p := progen.Random(rand.New(rand.NewSource(900+seed)), progen.DefaultParams())
		sys, err := NewSystem(p)
		if err != nil {
			t.Fatal(err)
		}
		a := absint.New(p, cfg)
		base := a.ClassifyAll()
		ref, err := ComputeHitBounds(sys, a, base, HitBoundOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 2, 3, 8, 64} {
			got, err := ComputeHitBounds(sys, a, base, HitBoundOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			for s := range ref {
				if got[s] != ref[s] {
					t.Fatalf("seed %d workers=%d: bound[%d] = %d, want %d",
						seed, workers, s, got[s], ref[s])
				}
			}
		}
	}
}

// TestComputeHitBoundsDominatesHitExecutions: the bound of each set must
// be at least the hit-classified executions of any feasible path; the
// WCET solve's block counts provide one such path.
func TestComputeHitBoundsDominatesHitExecutions(t *testing.T) {
	cfg := cache.Config{Sets: 8, Ways: 2, BlockBytes: 8, HitLatency: 1, MemLatency: 10}
	for seed := int64(0); seed < 6; seed++ {
		p := progen.Random(rand.New(rand.NewSource(300+seed)), progen.DefaultParams())
		sys, err := NewSystem(p)
		if err != nil {
			t.Fatal(err)
		}
		a := absint.New(p, cfg)
		base := a.ClassifyAll()
		wres, err := WCETCombined(sys, a, base, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		hb, err := ComputeHitBounds(sys, a, base, HitBoundOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		// Count the WCET path's hit-classified executions per set.
		onPath := make([]int64, cfg.Sets)
		for s := 0; s < cfg.Sets; s++ {
			for _, r := range a.RefsOfSet(s) {
				if base[r.Global].CountsAsMiss() {
					continue
				}
				// BlockCounts are integral at ILP optima; round defensively.
				onPath[s] += int64(wres.BlockCounts[r.BB] + 0.5)
			}
		}
		for s := 0; s < cfg.Sets; s++ {
			if hb[s] < onPath[s] {
				t.Errorf("seed %d: bound[%d] = %d below the WCET path's %d hit executions",
					seed, s, hb[s], onPath[s])
			}
			if hb[s] < 0 {
				t.Errorf("seed %d: bound[%d] = %d negative", seed, s, hb[s])
			}
		}
	}
}

// TestComputeHitBoundsAllMissSet: a set whose references all count as
// misses has bound 0 without solving an ILP.
func TestComputeHitBoundsAllMissSet(t *testing.T) {
	cfg := cache.Config{Sets: 4, Ways: 2, BlockBytes: 8, HitLatency: 1, MemLatency: 10}
	p := progen.Random(rand.New(rand.NewSource(42)), progen.DefaultParams())
	sys, err := NewSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	a := absint.New(p, cfg)
	base := a.ClassifyAll()
	// Degrade every classification to always-miss: no reference is
	// vulnerable, so every bound must be 0.
	allMiss := make([]chmc.Class, len(base))
	for i := range allMiss {
		allMiss[i] = chmc.AlwaysMiss
	}
	hb, err := ComputeHitBounds(sys, a, allMiss, HitBoundOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for s, v := range hb {
		if v != 0 {
			t.Errorf("all-miss classification: bound[%d] = %d, want 0", s, v)
		}
	}
	if hb.Total() != 0 {
		t.Errorf("Total() = %d, want 0", hb.Total())
	}
}

// TestComputeHitBoundsLeavesSystemPristine mirrors the FMM guarantee:
// the shared system is not pivoted by the bound solves.
func TestComputeHitBoundsLeavesSystemPristine(t *testing.T) {
	cfg := cache.Config{Sets: 4, Ways: 2, BlockBytes: 8, HitLatency: 1, MemLatency: 10}
	p := progen.Random(rand.New(rand.NewSource(77)), progen.DefaultParams())
	sys, err := NewSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	a := absint.New(p, cfg)
	base := a.ClassifyAll()

	before, err := WCETCombined(sys, a, base, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ComputeHitBounds(sys, a, base, HitBoundOptions{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	after, err := WCETCombined(sys, a, base, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if before.WCET != after.WCET {
		t.Fatalf("WCET changed from %d to %d across ComputeHitBounds", before.WCET, after.WCET)
	}
}
