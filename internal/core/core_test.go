package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/progen"
	"repro/internal/program"
)

func testQuery(mech cache.Mechanism) Query {
	return Query{
		Cache:     cache.Config{Sets: 4, Ways: 2, BlockBytes: 8, HitLatency: 1, MemLatency: 10},
		Pfail:     1e-3,
		Mechanism: mech,
	}
}

func buildLoop(t *testing.T) *program.Program {
	t.Helper()
	b := program.New("loop")
	b.Func("main").Loop(50, func(l *program.Body) { l.Ops(6) })
	return b.MustBuild()
}

func TestAnalyzeDefaults(t *testing.T) {
	p := buildLoop(t)
	r, err := Analyze(p, EngineOptions{}, Query{Pfail: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if r.Query.Cache != cache.PaperConfig() {
		t.Error("default cache config not applied")
	}
	if r.Query.TargetExceedance != 1e-15 {
		t.Error("default target exceedance not applied")
	}
	if r.FaultFreeWCET <= 0 {
		t.Error("non-positive WCET")
	}
	if r.PWCET < r.FaultFreeWCET {
		t.Error("pWCET below fault-free WCET")
	}
}

func TestAnalyzeValidation(t *testing.T) {
	p := buildLoop(t)
	if _, err := Analyze(p, EngineOptions{}, Query{Pfail: 2}); err == nil {
		t.Error("pfail=2 accepted")
	}
	for _, target := range []float64{1.5, math.NaN()} {
		if _, err := Analyze(p, EngineOptions{}, Query{Pfail: 1e-4, TargetExceedance: target}); err == nil {
			t.Errorf("target %g accepted", target)
		}
	}
	bad := Query{Cache: cache.Config{Sets: 3, Ways: 1, BlockBytes: 8, HitLatency: 1, MemLatency: 1}}
	if _, err := Analyze(p, EngineOptions{}, bad); err == nil {
		t.Error("invalid cache accepted")
	}
}

func TestZeroPfailPWCETEqualsWCET(t *testing.T) {
	p := buildLoop(t)
	for _, mech := range []cache.Mechanism{cache.MechanismNone, cache.MechanismRW, cache.MechanismSRB} {
		opt := testQuery(mech)
		opt.Pfail = 0
		r, err := Analyze(p, EngineOptions{}, opt)
		if err != nil {
			t.Fatal(err)
		}
		if r.PWCET != r.FaultFreeWCET {
			t.Errorf("%v: pWCET %d != fault-free WCET %d at pfail=0", mech, r.PWCET, r.FaultFreeWCET)
		}
		if r.Penalty.Max() != 0 {
			t.Errorf("%v: nonzero penalty at pfail=0", mech)
		}
	}
}

func TestMechanismOrdering(t *testing.T) {
	// For every program: fault-free WCET <= pWCET(RW) <= pWCET(SRB) <=
	// pWCET(none). RW dominates SRB because it preserves strictly more
	// locality; both dominate no protection.
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := progen.Random(rng, progen.DefaultParams())
		results, err := AnalyzeAll(p, EngineOptions{}, testQuery(cache.MechanismNone))
		if err != nil {
			t.Fatal(err)
		}
		none := results[cache.MechanismNone]
		rw := results[cache.MechanismRW]
		srb := results[cache.MechanismSRB]
		if rw.FaultFreeWCET != none.FaultFreeWCET || srb.FaultFreeWCET != none.FaultFreeWCET {
			t.Fatalf("seed %d: fault-free WCET differs across mechanisms", seed)
		}
		if rw.PWCET > srb.PWCET {
			t.Errorf("seed %d (%s): pWCET RW %d > SRB %d", seed, p.Name, rw.PWCET, srb.PWCET)
		}
		if srb.PWCET > none.PWCET {
			t.Errorf("seed %d (%s): pWCET SRB %d > none %d", seed, p.Name, srb.PWCET, none.PWCET)
		}
		if none.PWCET < none.FaultFreeWCET {
			t.Errorf("seed %d: pWCET below fault-free WCET", seed)
		}
		// Distributional version: RW's penalty is stochastically
		// dominated by SRB's, which is dominated by none's.
		if !rw.Penalty.DominatedBy(srb.Penalty, 1e-9) {
			t.Errorf("seed %d: RW penalty not dominated by SRB", seed)
		}
		if !srb.Penalty.DominatedBy(none.Penalty, 1e-9) {
			t.Errorf("seed %d: SRB penalty not dominated by none", seed)
		}
	}
}

// TestAnalyzeAllMatchesIndividualAnalyses asserts the shared-computation
// fast path of AnalyzeAll produces results identical to three
// independent Analyze calls: same WCETs, pWCETs, and FMM entries.
func TestAnalyzeAllMatchesIndividualAnalyses(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(500 + seed))
		p := progen.Random(rng, progen.DefaultParams())
		opt := testQuery(cache.MechanismNone)
		shared, err := AnalyzeAll(p, EngineOptions{}, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []cache.Mechanism{cache.MechanismNone, cache.MechanismRW, cache.MechanismSRB} {
			o := opt
			o.Mechanism = m
			solo, err := Analyze(p, EngineOptions{}, o)
			if err != nil {
				t.Fatal(err)
			}
			sh := shared[m]
			if sh.FaultFreeWCET != solo.FaultFreeWCET {
				t.Errorf("seed %d %v: shared WCET %d != solo %d", seed, m, sh.FaultFreeWCET, solo.FaultFreeWCET)
			}
			if sh.PWCET != solo.PWCET {
				t.Errorf("seed %d %v: shared pWCET %d != solo %d", seed, m, sh.PWCET, solo.PWCET)
			}
			for s := range solo.FMM {
				for f := range solo.FMM[s] {
					if sh.FMM[s][f] != solo.FMM[s][f] {
						t.Errorf("seed %d %v: FMM[%d][%d] shared %d != solo %d",
							seed, m, s, f, sh.FMM[s][f], solo.FMM[s][f])
					}
				}
			}
		}
	}
}

func TestAnalyzeAllRejectsSpecializedOptions(t *testing.T) {
	p := buildLoop(t)
	opt := testQuery(cache.MechanismSRB)
	opt.PreciseSRB = true
	if _, err := AnalyzeAll(p, EngineOptions{}, opt); err == nil {
		t.Error("AnalyzeAll accepted PreciseSRB")
	}
	dcfg := testQuery(cache.MechanismNone).Cache
	opt2 := testQuery(cache.MechanismNone)
	opt2.DataCache = &dcfg
	if _, err := AnalyzeAll(p, EngineOptions{}, opt2); err == nil {
		t.Error("AnalyzeAll accepted DataCache")
	}
}

func TestGain(t *testing.T) {
	base := &Result{PWCET: 200}
	prot := &Result{PWCET: 120}
	if g := Gain(base, prot); math.Abs(g-0.4) > 1e-12 {
		t.Errorf("Gain = %g, want 0.4", g)
	}
	if g := Gain(&Result{PWCET: 0}, prot); g != 0 {
		t.Error("zero baseline must give zero gain")
	}
}

func TestPWCETMonotoneInExceedance(t *testing.T) {
	p := buildLoop(t)
	r, err := Analyze(p, EngineOptions{}, testQuery(cache.MechanismNone))
	if err != nil {
		t.Fatal(err)
	}
	prev := int64(0)
	for _, prob := range []float64{0.5, 1e-3, 1e-6, 1e-9, 1e-12, 1e-15} {
		v := r.PWCETAt(prob)
		if v < prev {
			t.Errorf("pWCET at %g = %d below pWCET at larger probability %d (must grow as the target tightens)", prob, v, prev)
		}
		prev = v
	}
}

func TestExceedanceCurveShape(t *testing.T) {
	p := buildLoop(t)
	r, err := Analyze(p, EngineOptions{}, testQuery(cache.MechanismNone))
	if err != nil {
		t.Fatal(err)
	}
	curve := r.ExceedanceCurve()
	if len(curve) == 0 {
		t.Fatal("empty curve")
	}
	if curve[0].Value < r.FaultFreeWCET {
		t.Error("curve starts below the fault-free WCET")
	}
	for i := 1; i < len(curve); i++ {
		if curve[i].Prob > curve[i-1].Prob {
			t.Fatal("exceedance curve not non-increasing")
		}
		if curve[i].Value <= curve[i-1].Value {
			t.Fatal("curve values not strictly increasing")
		}
	}
	if last := curve[len(curve)-1]; last.Prob != 0 {
		t.Error("curve must end at probability 0")
	}
}

func TestPfailMonotone(t *testing.T) {
	// Higher pfail gives (weakly) higher pWCET for the unprotected
	// architecture.
	p := buildLoop(t)
	prev := int64(0)
	for _, pf := range []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2} {
		opt := testQuery(cache.MechanismNone)
		opt.Pfail = pf
		r, err := Analyze(p, EngineOptions{}, opt)
		if err != nil {
			t.Fatal(err)
		}
		if r.PWCET < prev {
			t.Errorf("pWCET decreased from %d to %d when pfail rose to %g", prev, r.PWCET, pf)
		}
		prev = r.PWCET
	}
}

func TestClassify(t *testing.T) {
	p := buildLoop(t)
	c := Classify(p, testQuery(cache.MechanismNone).Cache)
	if len(c.Refs) == 0 || len(c.Classes) != len(c.Refs) || len(c.SRBHit) != len(c.Refs) {
		t.Fatal("classification shape wrong")
	}
}

// TestCurveQuantileConsistency: for every point (v, p) of the
// exceedance curve, PWCETAt must be consistent: at probability just
// above p the quantile is at most v; at p itself the quantile is the
// smallest value whose exceedance is <= p.
func TestCurveQuantileConsistency(t *testing.T) {
	p := buildLoop(t)
	r, err := Analyze(p, EngineOptions{}, testQuery(cache.MechanismNone))
	if err != nil {
		t.Fatal(err)
	}
	curve := r.ExceedanceCurve()
	for _, pt := range curve {
		if got := r.PWCETAt(pt.Prob); got > pt.Value {
			t.Errorf("PWCETAt(%g) = %d, above curve value %d", pt.Prob, got, pt.Value)
		}
	}
	// CCDF read back from the penalty distribution matches the curve.
	for _, pt := range curve {
		if got := r.Penalty.CCDF(pt.Value - r.FaultFreeWCET); math.Abs(got-pt.Prob) > 1e-12 {
			t.Errorf("CCDF mismatch at %d: %g vs %g", pt.Value, got, pt.Prob)
		}
	}
}

func TestCoarseningStillSound(t *testing.T) {
	// A tiny MaxSupport must never lower the pWCET (mass only moves up).
	p := progen.Random(rand.New(rand.NewSource(3)), progen.DefaultParams())
	exact, err := Analyze(p, EngineOptions{}, testQuery(cache.MechanismNone))
	if err != nil {
		t.Fatal(err)
	}
	opt := testQuery(cache.MechanismNone)
	opt.MaxSupport = 8
	coarse, err := Analyze(p, EngineOptions{}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if coarse.PWCET < exact.PWCET {
		t.Errorf("coarsened pWCET %d below exact %d", coarse.PWCET, exact.PWCET)
	}
}
