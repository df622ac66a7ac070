package pwcet_test

// Ablation benchmarks for the design choices called out in DESIGN.md.
// Each reports the quantities being compared as custom metrics, so
// `go test -bench=Ablation` doubles as the ablation study:
//
//   - AblationPreciseSRB: the paper's future-work refinement of the SRB
//     analysis. The mixture bound can only help for exceedance targets
//     above P(two sets entirely faulty) ~ 8.4e-14; the bench reports
//     pWCETs at 1e-9 (where it helps) and 1e-15 (where it must not).
//   - AblationConservativeFM: the first-miss constant credits in the
//     FMM difference objective (tighter, equally sound) vs the plain
//     conservative accounting.
//   - AblationCoarsening: exact convolution vs aggressive support
//     coarsening; coarsening must only ever increase the pWCET.

import (
	"testing"

	pwcet "repro"
	"repro/internal/absint"
	"repro/internal/cache"
	"repro/internal/ipet"
	"repro/internal/malardalen"
)

func BenchmarkAblationPreciseSRB(b *testing.B) {
	p := malardalen.MustGet("fibcall")
	var cons9, prec9, cons15, prec15 int64
	for i := 0; i < b.N; i++ {
		c, err := pwcet.Analyze(p, pwcet.Query{Pfail: 1e-4, Mechanism: pwcet.SRB})
		if err != nil {
			b.Fatal(err)
		}
		pr, err := pwcet.Analyze(p, pwcet.Query{Pfail: 1e-4, Mechanism: pwcet.SRB, PreciseSRB: true})
		if err != nil {
			b.Fatal(err)
		}
		cons9, prec9 = c.PWCETAt(1e-9), pr.PWCETAt(1e-9)
		cons15, prec15 = c.PWCETAt(1e-15), pr.PWCETAt(1e-15)
		if prec9 > cons9 || prec15 > cons15 {
			b.Fatal("precise SRB produced a worse bound")
		}
	}
	b.ReportMetric(float64(cons9), "pwcet@1e-9-conservative")
	b.ReportMetric(float64(prec9), "pwcet@1e-9-precise")
	b.ReportMetric(float64(cons15), "pwcet@1e-15-conservative")
	b.ReportMetric(float64(prec15), "pwcet@1e-15-precise")
}

func BenchmarkAblationConservativeFM(b *testing.B) {
	p := malardalen.MustGet("crc")
	cfg := cache.PaperConfig()
	a := absint.New(p, cfg)
	classes := a.ClassifyAll()
	var tight, loose int64
	for i := 0; i < b.N; i++ {
		sys, err := ipet.NewSystem(p)
		if err != nil {
			b.Fatal(err)
		}
		fmmTight, err := ipet.ComputeFMM(sys, a, classes, ipet.FMMOptions{Mechanism: cache.MechanismNone})
		if err != nil {
			b.Fatal(err)
		}
		fmmLoose, err := ipet.ComputeFMM(sys, a, classes, ipet.FMMOptions{
			Mechanism:      cache.MechanismNone,
			ConservativeFM: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		tight, loose = 0, 0
		for s := range fmmTight {
			for f := range fmmTight[s] {
				tight += fmmTight[s][f]
				loose += fmmLoose[s][f]
				if fmmTight[s][f] > fmmLoose[s][f] {
					b.Fatal("credited FMM exceeded the conservative one")
				}
			}
		}
	}
	b.ReportMetric(float64(tight), "fmm-total-with-credits")
	b.ReportMetric(float64(loose), "fmm-total-conservative")
}

func BenchmarkAblationCoarsening(b *testing.B) {
	p := malardalen.MustGet("adpcm")
	var exact, coarse, tiny int64
	for i := 0; i < b.N; i++ {
		e, err := pwcet.Analyze(p, pwcet.Query{Pfail: 1e-4, MaxSupport: 1 << 20})
		if err != nil {
			b.Fatal(err)
		}
		c, err := pwcet.Analyze(p, pwcet.Query{Pfail: 1e-4}) // default 4096
		if err != nil {
			b.Fatal(err)
		}
		ty, err := pwcet.Analyze(p, pwcet.Query{Pfail: 1e-4, MaxSupport: 32})
		if err != nil {
			b.Fatal(err)
		}
		exact, coarse, tiny = e.PWCET, c.PWCET, ty.PWCET
		if coarse < exact || tiny < coarse {
			b.Fatal("coarsening lowered a pWCET (must be conservative)")
		}
	}
	b.ReportMetric(float64(exact), "pwcet-exact")
	b.ReportMetric(float64(coarse), "pwcet-support-4096")
	b.ReportMetric(float64(tiny), "pwcet-support-32")
}
