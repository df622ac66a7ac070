package sim

import (
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/malardalen"
	"repro/internal/progen"
	"repro/internal/program"
)

// validateBench runs the Monte-Carlo validator on one benchmark and
// mechanism with an elevated pfail (so sampled maps actually contain
// faults) and asserts zero violations.
func validateBench(t *testing.T, name string, mech cache.Mechanism) {
	t.Helper()
	p, err := malardalen.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Analyze(p, core.EngineOptions{}, core.Query{
		Pfail:     2e-3, // pbf ~ 23%: faults are frequent in samples
		Mechanism: mech,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Validate(p, res, 40, 2, 12345)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BoundViolations != 0 {
		t.Errorf("%s/%v: %d bound violations (max time %d, max bound %d)",
			name, mech, rep.BoundViolations, rep.MaxTime, rep.MaxBound)
	}
	if rep.CCDFViolations != 0 {
		t.Errorf("%s/%v: %d CCDF violations", name, mech, rep.CCDFViolations)
	}
	if rep.WorstGapRatio > 1 {
		t.Errorf("%s/%v: worst gap ratio %f > 1", name, mech, rep.WorstGapRatio)
	}
	if rep.MaxTime < res.FaultFreeWCET/10 {
		t.Errorf("%s/%v: simulated times suspiciously low (%d vs WCET %d)",
			name, mech, rep.MaxTime, res.FaultFreeWCET)
	}
}

func TestValidateSmallBenchmarks(t *testing.T) {
	for _, name := range []string{"bs", "fibcall", "prime", "insertsort"} {
		for _, mech := range []cache.Mechanism{cache.MechanismNone, cache.MechanismRW, cache.MechanismSRB} {
			name, mech := name, mech
			t.Run(name+"/"+mech.String(), func(t *testing.T) {
				t.Parallel()
				validateBench(t, name, mech)
			})
		}
	}
}

func TestValidateMediumBenchmark(t *testing.T) {
	if testing.Short() {
		t.Skip("medium benchmark validation is slow")
	}
	for _, mech := range []cache.Mechanism{cache.MechanismNone, cache.MechanismRW, cache.MechanismSRB} {
		mech := mech
		t.Run(mech.String(), func(t *testing.T) {
			t.Parallel()
			validateBench(t, "qurt", mech)
		})
	}
}

func TestValidateRandomPrograms(t *testing.T) {
	cfg := cache.Config{Sets: 4, Ways: 2, BlockBytes: 8, HitLatency: 1, MemLatency: 10}
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := progen.Random(rng, progen.DefaultParams())
		for _, mech := range []cache.Mechanism{cache.MechanismNone, cache.MechanismRW, cache.MechanismSRB} {
			res, err := core.Analyze(p, core.EngineOptions{}, core.Query{Cache: cfg, Pfail: 5e-3, Mechanism: mech})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Validate(p, res, 25, 2, seed)
			if err != nil {
				t.Fatal(err)
			}
			if rep.BoundViolations != 0 {
				t.Fatalf("seed %d mech %v: %d bound violations", seed, mech, rep.BoundViolations)
			}
		}
	}
}

// TestValidatePreciseSRB checks the soundness of the mixture analysis:
// the per-map bound (which uses the precise FMM only when its
// single-fully-faulty-set precondition holds) must dominate every
// simulation, even at fault rates where whole sets die frequently.
func TestValidatePreciseSRB(t *testing.T) {
	for _, name := range []string{"bs", "fibcall", "insertsort"} {
		p, err := malardalen.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		// Very high pbf so that fully-faulty sets (and occasionally
		// several of them) occur in the samples.
		res, err := core.Analyze(p, core.EngineOptions{}, core.Query{
			Pfail:      6e-3, // pbf ~ 54%
			Mechanism:  cache.MechanismSRB,
			PreciseSRB: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.FMMPrecise == nil {
			t.Fatal("precise FMM missing")
		}
		rep, err := Validate(p, res, 60, 2, 99)
		if err != nil {
			t.Fatal(err)
		}
		if rep.BoundViolations != 0 {
			t.Errorf("%s: %d bound violations with precise SRB", name, rep.BoundViolations)
		}
	}
}

// TestValidateWithDataCache runs the Monte-Carlo check on an analysis
// covering both caches: instruction and data fault maps are sampled
// independently and both simulators contribute to the execution time.
func TestValidateWithDataCache(t *testing.T) {
	b := program.New("datakernel")
	b.Func("main").
		Ops(4).
		Loop(15, func(l *program.Body) {
			l.Load(0x2000).Ops(2).Load(0x2010).Ops(2).Store(0x2020)
		}).
		Ops(2)
	p := b.MustBuild()
	dcfg := cache.Config{Sets: 4, Ways: 2, BlockBytes: 8, HitLatency: 1, MemLatency: 10}
	for _, mech := range []cache.Mechanism{cache.MechanismNone, cache.MechanismRW, cache.MechanismSRB} {
		res, err := core.Analyze(p, core.EngineOptions{}, core.Query{
			Cache:     cache.Config{Sets: 4, Ways: 2, BlockBytes: 8, HitLatency: 1, MemLatency: 10},
			Pfail:     5e-3,
			Mechanism: mech,
			DataCache: &dcfg,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Validate(p, res, 50, 2, 17)
		if err != nil {
			t.Fatal(err)
		}
		if rep.BoundViolations != 0 {
			t.Errorf("%v: %d bound violations with data cache", mech, rep.BoundViolations)
		}
		if rep.CCDFViolations != 0 {
			t.Errorf("%v: %d CCDF violations with data cache", mech, rep.CCDFViolations)
		}
	}
}

func TestPenaltyBoundRWMasksWayZero(t *testing.T) {
	p, err := malardalen.Get("bs")
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Analyze(p, core.EngineOptions{}, core.Query{Pfail: 1e-4, Mechanism: cache.MechanismRW})
	if err != nil {
		t.Fatal(err)
	}
	cfg := res.Query.Cache
	// Fault only in way 0 of each set: fully masked by the RW.
	fm := cache.NewFaultMap(cfg.Sets, cfg.Ways)
	for s := range fm {
		fm[s][0] = true
	}
	if got := PenaltyBound(res, fm); got != 0 {
		t.Errorf("PenaltyBound with only way-0 faults under RW = %d, want 0", got)
	}
}

// TestAdversarialFaultMaps probes the FMM bound with worst-case fault
// placements (hottest sets killed, uniform partial kills) across the
// suite's small benchmarks and all mechanisms.
func TestAdversarialFaultMaps(t *testing.T) {
	for _, name := range []string{"bs", "fibcall", "prime", "expint", "matmult"} {
		for _, mech := range []cache.Mechanism{cache.MechanismNone, cache.MechanismRW, cache.MechanismSRB} {
			name, mech := name, mech
			t.Run(name+"/"+mech.String(), func(t *testing.T) {
				t.Parallel()
				p, err := malardalen.Get(name)
				if err != nil {
					t.Fatal(err)
				}
				res, err := core.Analyze(p, core.EngineOptions{}, core.Query{Pfail: 1e-4, Mechanism: mech})
				if err != nil {
					t.Fatal(err)
				}
				v, err := ValidateAdversarial(p, res, 3, 5)
				if err != nil {
					t.Fatal(err)
				}
				if v != 0 {
					t.Errorf("%d bound violations under adversarial fault maps", v)
				}
			})
		}
	}
}

func TestAdversarialRandomPrograms(t *testing.T) {
	cfg := cache.Config{Sets: 4, Ways: 2, BlockBytes: 8, HitLatency: 1, MemLatency: 10}
	for seed := int64(0); seed < 15; seed++ {
		rng := rand.New(rand.NewSource(700 + seed))
		p := progen.Random(rng, progen.DefaultParams())
		for _, mech := range []cache.Mechanism{cache.MechanismNone, cache.MechanismSRB} {
			res, err := core.Analyze(p, core.EngineOptions{}, core.Query{Cache: cfg, Pfail: 1e-3, Mechanism: mech})
			if err != nil {
				t.Fatal(err)
			}
			v, err := ValidateAdversarial(p, res, 2, seed)
			if err != nil {
				t.Fatal(err)
			}
			if v != 0 {
				t.Fatalf("seed %d mech %v: %d adversarial violations", seed, mech, v)
			}
		}
	}
}

func TestValidateArgChecks(t *testing.T) {
	p, _ := malardalen.Get("bs")
	res, err := core.Analyze(p, core.EngineOptions{}, core.Query{Pfail: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Validate(p, res, 0, 1, 1); err == nil {
		t.Error("zero samples accepted")
	}
	if _, err := Validate(p, res, 1, 0, 1); err == nil {
		t.Error("zero paths accepted")
	}
}
