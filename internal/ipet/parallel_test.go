package ipet

import (
	"math/rand"
	"testing"

	"repro/internal/absint"
	"repro/internal/cache"
	"repro/internal/progen"
)

// TestComputeFMMWorkersByteIdentical: the parallel fault-miss-map is
// byte-identical to the sequential one for every worker count and
// mechanism — each set's row is a pure function of the pristine warm
// basis, so neither scheduling nor pool size may show in the output.
func TestComputeFMMWorkersByteIdentical(t *testing.T) {
	cfg := cache.Config{Sets: 8, Ways: 2, BlockBytes: 8, HitLatency: 1, MemLatency: 10}
	for seed := int64(0); seed < 6; seed++ {
		p := progen.Random(rand.New(rand.NewSource(900+seed)), progen.DefaultParams())
		sys, err := NewSystem(p)
		if err != nil {
			t.Fatal(err)
		}
		a := absint.New(p, cfg)
		base := a.ClassifyAll()
		for _, mech := range []cache.Mechanism{cache.MechanismNone, cache.MechanismRW, cache.MechanismSRB} {
			opt := FMMOptions{Mechanism: mech, Workers: 1}
			if mech == cache.MechanismSRB {
				opt.SRBHit = a.ClassifySRB()
			}
			ref, err := ComputeFMM(sys, a, base, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{0, 2, 3, 8, 64} {
				opt.Workers = workers
				got, err := ComputeFMM(sys, a, base, opt)
				if err != nil {
					t.Fatal(err)
				}
				for s := range ref {
					for f := range ref[s] {
						if got[s][f] != ref[s][f] {
							t.Fatalf("seed %d %v workers=%d: FMM[%d][%d] = %d, want %d",
								seed, mech, workers, s, f, got[s][f], ref[s][f])
						}
					}
				}
			}
		}
	}
}

// TestComputeFMMLeavesSystemPristine: ComputeFMM must not pivot the
// shared system — a later solve on it behaves as if the FMM had never
// run, which is what makes concurrent ComputeFMM calls on one System
// safe.
func TestComputeFMMLeavesSystemPristine(t *testing.T) {
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
	if _, err := ComputeFMM(sys, a, base, FMMOptions{Mechanism: cache.MechanismNone, Workers: 4}); err != nil {
		t.Fatal(err)
	}
	after, err := WCETCombined(sys, a, base, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if before.WCET != after.WCET {
		t.Fatalf("WCET changed from %d to %d across ComputeFMM", before.WCET, after.WCET)
	}
}
