package pwcet_test

import (
	"testing"

	pwcet "repro"
)

// TestPublicAPIQuickstart exercises the documented quickstart flow.
func TestPublicAPIQuickstart(t *testing.T) {
	b := pwcet.NewProgram("api")
	b.Func("main").Loop(100, func(l *pwcet.Body) { l.Ops(12) })
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := pwcet.Analyze(p, pwcet.Query{Pfail: 1e-4, Mechanism: pwcet.RW})
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultFreeWCET <= 0 || res.PWCET < res.FaultFreeWCET {
		t.Errorf("implausible WCETs: fault-free %d, pWCET %d", res.FaultFreeWCET, res.PWCET)
	}
	if res.Query.Cache != pwcet.PaperCache() {
		t.Error("default cache is not the paper configuration")
	}
}

// TestSuiteAvailable checks the 25-benchmark suite is reachable through
// the public API.
func TestSuiteAvailable(t *testing.T) {
	names := pwcet.Benchmarks()
	if len(names) != 25 {
		t.Fatalf("%d benchmarks, want 25", len(names))
	}
	p, err := pwcet.Benchmark("matmult")
	if err != nil || p.Name != "matmult" {
		t.Fatalf("Benchmark(matmult) = %v, %v", p, err)
	}
	if _, err := pwcet.Benchmark("nope"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

// TestPaperShape asserts the qualitative findings of Section IV.B on the
// full suite — the properties the paper's Figure 4 demonstrates:
//
//  1. for every benchmark, fault-free WCET <= pWCET(RW) <= pWCET(SRB)
//     <= pWCET(none);
//  2. all four behaviour categories occur;
//  3. the average gains are large (paper: RW 48%, SRB 40%); we assert
//     a generous band since the substrate differs;
//  4. protection gains are strictly positive everywhere (the paper's
//     "for all benchmarks ... significantly lower pWCETs").
func TestPaperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite sweep")
	}
	var sumRW, sumSRB float64
	categories := map[int]int{}
	for _, name := range pwcet.Benchmarks() {
		p, err := pwcet.Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		results, err := pwcet.AnalyzeAll(p, pwcet.Query{Pfail: 1e-4})
		if err != nil {
			t.Fatal(err)
		}
		none, rw, srb := results[pwcet.None], results[pwcet.RW], results[pwcet.SRB]

		if rw.FaultFreeWCET != none.FaultFreeWCET || srb.FaultFreeWCET != none.FaultFreeWCET {
			t.Errorf("%s: fault-free WCET differs across mechanisms", name)
		}
		if !(none.FaultFreeWCET <= rw.PWCET && rw.PWCET <= srb.PWCET && srb.PWCET <= none.PWCET) {
			t.Errorf("%s: ordering violated: ff %d, rw %d, srb %d, none %d",
				name, none.FaultFreeWCET, rw.PWCET, srb.PWCET, none.PWCET)
		}
		gRW, gSRB := pwcet.Gain(none, rw), pwcet.Gain(none, srb)
		if gRW <= 0 || gSRB <= 0 {
			t.Errorf("%s: non-positive gain (rw %.3f, srb %.3f)", name, gRW, gSRB)
		}
		if gRW+1e-12 < gSRB {
			t.Errorf("%s: RW gain %.3f below SRB gain %.3f", name, gRW, gSRB)
		}
		sumRW += gRW
		sumSRB += gSRB

		switch {
		case rw.PWCET == none.FaultFreeWCET && srb.PWCET == none.FaultFreeWCET:
			categories[1]++
		case rw.PWCET == none.FaultFreeWCET:
			categories[2]++
		case gRW-gSRB < 0.02:
			categories[3]++
		default:
			categories[4]++
		}
	}
	n := float64(len(pwcet.Benchmarks()))
	avgRW, avgSRB := sumRW/n, sumSRB/n
	t.Logf("average gains: RW %.1f%% (paper 48%%), SRB %.1f%% (paper 40%%)", 100*avgRW, 100*avgSRB)
	t.Logf("categories: %v", categories)
	if avgRW < 0.30 || avgRW > 0.75 {
		t.Errorf("average RW gain %.1f%% far from the paper's 48%%", 100*avgRW)
	}
	if avgSRB < 0.25 || avgSRB > 0.65 {
		t.Errorf("average SRB gain %.1f%% far from the paper's 40%%", 100*avgSRB)
	}
	if avgRW <= avgSRB {
		t.Errorf("average RW gain %.3f not above SRB %.3f", avgRW, avgSRB)
	}
	for c := 1; c <= 4; c++ {
		if categories[c] == 0 {
			t.Errorf("category %d empty — Figure 4 shows all four", c)
		}
	}
}

// TestFig3Shape asserts the qualitative content of Figure 3: the three
// exceedance curves of adpcm are ordered RW <= SRB <= none at every
// probed probability, and the unprotected pWCET at 1e-15 is far above
// the fault-free WCET (the motivation for the paper).
func TestFig3Shape(t *testing.T) {
	p, err := pwcet.Benchmark("adpcm")
	if err != nil {
		t.Fatal(err)
	}
	results, err := pwcet.AnalyzeAll(p, pwcet.Query{Pfail: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	none, rw, srb := results[pwcet.None], results[pwcet.RW], results[pwcet.SRB]
	for _, prob := range []float64{1e-3, 1e-6, 1e-9, 1e-12, 1e-15} {
		vNone, vRW, vSRB := none.PWCETAt(prob), rw.PWCETAt(prob), srb.PWCETAt(prob)
		if !(vRW <= vSRB && vSRB <= vNone) {
			t.Errorf("at %g: rw %d, srb %d, none %d not ordered", prob, vRW, vSRB, vNone)
		}
	}
	if float64(none.PWCET) < 2*float64(none.FaultFreeWCET) {
		t.Errorf("unprotected pWCET %d not significantly above fault-free %d",
			none.PWCET, none.FaultFreeWCET)
	}
}

// TestValidatePublicAPI runs the Monte-Carlo soundness check through the
// facade.
func TestValidatePublicAPI(t *testing.T) {
	p, err := pwcet.Benchmark("bs")
	if err != nil {
		t.Fatal(err)
	}
	res, err := pwcet.Analyze(p, pwcet.Query{Pfail: 2e-3, Mechanism: pwcet.SRB})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := pwcet.Validate(p, res, 50, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BoundViolations != 0 || rep.CCDFViolations != 0 {
		t.Errorf("soundness violations: %d bound, %d ccdf", rep.BoundViolations, rep.CCDFViolations)
	}
}

// TestPBFPublic checks equation 1 through the facade at the paper's
// roadmap values.
func TestPBFPublic(t *testing.T) {
	if p := pwcet.PBF(1e-4, 128); p < 0.0127 || p > 0.0128 {
		t.Errorf("PBF(1e-4, 128) = %g, want ~0.0127", p)
	}
}
