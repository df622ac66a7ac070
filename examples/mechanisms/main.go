// Mechanisms: a deeper look at how the Reliable Way and the Shared
// Reliable Buffer differ, reproducing the reasoning of Section III.A and
// the category analysis of Section IV.B on three purpose-built programs:
//
//   - spatialOnly streams through code larger than the cache: both
//     mechanisms fully mask the faults (category 1);
//   - mruTemporal runs a tight loop resident in one way per set: the RW
//     recovers the fault-free WCET, the SRB cannot preserve the hits
//     (category 2);
//   - deepTemporal needs several ways per set: neither mechanism
//     protects the non-MRU locality, so their gains converge
//     (category 3).
package main

import (
	"fmt"
	"log"

	pwcet "repro"
)

func build(name string, f func(*pwcet.Body)) *pwcet.Program {
	b := pwcet.NewProgram(name)
	f(b.Func("main"))
	p, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	return p
}

func main() {
	programs := []*pwcet.Program{
		build("spatialOnly", func(m *pwcet.Body) {
			// 1.6KB body streaming through a 1KB cache.
			m.Loop(8, func(l *pwcet.Body) { l.Ops(400) })
		}),
		build("mruTemporal", func(m *pwcet.Body) {
			// 160B hot loop: one block per set at most.
			m.Ops(100)
			m.Loop(60, func(l *pwcet.Body) { l.Ops(36) })
		}),
		build("deepTemporal", func(m *pwcet.Body) {
			// ~900B hot loop: 3-4 blocks per set, all ways needed.
			m.Ops(100)
			m.Loop(40, func(l *pwcet.Body) { l.Ops(220) })
		}),
	}

	fmt.Println("category analysis (pfail=1e-4, target=1e-15):")
	fmt.Println()
	for _, p := range programs {
		results, err := pwcet.AnalyzeAll(p, pwcet.Query{Pfail: 1e-4})
		if err != nil {
			log.Fatal(err)
		}
		none, rw, srb := results[pwcet.None], results[pwcet.RW], results[pwcet.SRB]
		fmt.Printf("%-13s (%4d B code): fault-free %7d | rw %7d | srb %7d | none %7d\n",
			p.Name, p.CodeBytes(), none.FaultFreeWCET, rw.PWCET, srb.PWCET, none.PWCET)
		switch {
		case rw.PWCET == none.FaultFreeWCET && srb.PWCET == none.FaultFreeWCET:
			fmt.Println("              -> category 1: both mechanisms fully mask the faults")
		case rw.PWCET == none.FaultFreeWCET:
			fmt.Println("              -> category 2: RW recovers the fault-free WCET, SRB cannot")
		default:
			fmt.Printf("              -> category 3/4: residual degradation (gains rw %.0f%%, srb %.0f%%)\n",
				100*pwcet.Gain(none, rw), 100*pwcet.Gain(none, srb))
		}
		fmt.Println()
	}

	fmt.Println("hardware tradeoff (Section III.A): the RW hardens S whole cache blocks")
	fmt.Println("(one way), the SRB hardens a single block shared by all sets — the")
	fmt.Println("analysis quantifies what each buys for a given application.")
}
