// Validate: audit the static analysis against a cycle-accurate
// simulation. Fault maps are sampled from the paper's fault model
// (equation 1 at block granularity), the program is executed on random
// paths through a concrete LRU cache with the sampled blocks disabled,
// and every run is checked against the analytical bound
// "fault-free WCET + sum of per-set FMM penalties".
//
// An elevated pfail is used so that sampled maps actually contain faults
// (at the paper's 1e-4, a 64-block cache is fault-free ~44% of the time
// and nearly always has at most a couple of faulty blocks).
package main

import (
	"fmt"
	"log"
	"os"

	pwcet "repro"
)

func main() {
	bench := "insertsort"
	if len(os.Args) > 1 {
		bench = os.Args[1]
	}
	p, err := pwcet.Benchmark(bench)
	if err != nil {
		log.Fatal(err)
	}

	for _, m := range []pwcet.Mechanism{pwcet.None, pwcet.RW, pwcet.SRB} {
		res, err := pwcet.Analyze(p, pwcet.Query{
			Pfail:     2e-3, // pbf ~ 22%: most sampled maps contain faults
			Mechanism: m,
		})
		if err != nil {
			log.Fatal(err)
		}
		rep, err := pwcet.Validate(p, res, 300, 2, 42)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s / %s: %d fault maps x %d paths\n", bench, m, rep.Samples, rep.PathsPerSample)
		fmt.Printf("  fault-free WCET %d, max simulated %d, max analytical bound %d\n",
			res.FaultFreeWCET, rep.MaxTime, rep.MaxBound)
		fmt.Printf("  bound violations: %d, CCDF violations: %d, worst sim/bound ratio: %.3f\n",
			rep.BoundViolations, rep.CCDFViolations, rep.WorstGapRatio)
		if rep.BoundViolations != 0 || rep.CCDFViolations != 0 {
			fmt.Println("  !! soundness violation — please file a bug")
			os.Exit(1)
		}
		fmt.Println("  sound: no simulation exceeded its bound")
		fmt.Println()
	}
}
