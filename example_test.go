package pwcet_test

import (
	"fmt"

	pwcet "repro"
)

// ExampleAnalyze shows the basic flow: author a program, analyze it
// under the paper's configuration, read the fault-free WCET and the
// pWCET at the 1e-15 target.
func ExampleAnalyze() {
	b := pwcet.NewProgram("demo")
	b.Func("main").Ops(8).Loop(10, func(l *pwcet.Body) { l.Ops(4) })
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	res, err := pwcet.Analyze(p, pwcet.Query{Pfail: 1e-4, Mechanism: pwcet.RW})
	if err != nil {
		panic(err)
	}
	fmt.Println("fault-free WCET:", res.FaultFreeWCET)
	fmt.Println("pWCET at 1e-15:", res.PWCET)
	// Output:
	// fault-free WCET: 581
	// pWCET at 1e-15: 581
}

// ExampleEngine_AnalyzeBatch runs a pfail sweep as one engine batch:
// the CFG, fixpoints, IPET system, fault-free WCET and per-set FMM
// solves are computed once and shared by every sweep point; each query
// only re-weights the probabilities and convolves.
func ExampleEngine_AnalyzeBatch() {
	b := pwcet.NewProgram("sweep")
	b.Func("main").Ops(8).Loop(10, func(l *pwcet.Body) { l.Ops(4) })
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	eng, err := pwcet.NewEngine(p, pwcet.EngineOptions{})
	if err != nil {
		panic(err)
	}
	queries := []pwcet.Query{
		{Pfail: 1e-6, Mechanism: pwcet.SRB},
		{Pfail: 1e-4, Mechanism: pwcet.SRB},
		{Pfail: 1e-3, Mechanism: pwcet.SRB},
	}
	results, err := eng.AnalyzeBatch(queries)
	if err != nil {
		panic(err)
	}
	for i, r := range results {
		fmt.Printf("pfail=%g: pWCET %d\n", queries[i].Pfail, r.PWCET)
	}
	// Output:
	// pfail=1e-06: pWCET 581
	// pfail=0.0001: pWCET 1581
	// pfail=0.001: pWCET 2481
}

// ExampleAnalyzeAll compares the three architectures of the paper on a
// tight loop: the RW recovers the fault-free WCET (category 2), the SRB
// cannot preserve the loop's MRU hits, no protection pays the full
// whole-set penalty.
func ExampleAnalyzeAll() {
	b := pwcet.NewProgram("tight-loop")
	b.Func("main").Ops(40).Loop(50, func(l *pwcet.Body) { l.Ops(12) })
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	results, err := pwcet.AnalyzeAll(p, pwcet.Query{Pfail: 1e-4})
	if err != nil {
		panic(err)
	}
	none := results[pwcet.None]
	for _, m := range []pwcet.Mechanism{pwcet.None, pwcet.SRB, pwcet.RW} {
		fmt.Printf("%s: %.2fx fault-free\n", m,
			float64(results[m].PWCET)/float64(none.FaultFreeWCET))
	}
	// Output:
	// none: 18.44x fault-free
	// srb: 5.32x fault-free
	// rw: 1.00x fault-free
}

// ExamplePBF evaluates equation 1 of the paper at its quoted operating
// points: 16-byte (128-bit) cache lines.
func ExamplePBF() {
	fmt.Printf("pbf at pfail=1e-4: %.4f\n", pwcet.PBF(1e-4, 128))
	// Output:
	// pbf at pfail=1e-4: 0.0127
}

// ExampleGain computes the paper's headline metric for one benchmark.
func ExampleGain() {
	p, err := pwcet.Benchmark("fibcall")
	if err != nil {
		panic(err)
	}
	results, err := pwcet.AnalyzeAll(p, pwcet.Query{Pfail: 1e-4})
	if err != nil {
		panic(err)
	}
	fmt.Printf("RW gain: %.1f%%\n", 100*pwcet.Gain(results[pwcet.None], results[pwcet.RW]))
	// Output:
	// RW gain: 59.6%
}
