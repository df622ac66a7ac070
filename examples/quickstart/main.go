// Quickstart: author a small program, estimate its probabilistic WCET
// under permanent cache faults, and compare the three architectures of
// the paper (no protection, Reliable Way, Shared Reliable Buffer).
package main

import (
	"fmt"
	"log"

	pwcet "repro"
)

func main() {
	// A toy control task: sensor filtering in a bounded loop, a mode
	// branch, and an actuation function called once per activation.
	b := pwcet.NewProgram("quickstart")
	b.Func("main").
		Ops(20). // startup: load calibration constants
		Loop(50, func(l *pwcet.Body) {
			l.Ops(8) // read sensor, update filter state
			l.If(func(alarm *pwcet.Body) {
				alarm.Ops(6) // clamp + flag
			}, func(normal *pwcet.Body) {
				normal.Ops(4)
			})
		}).
		Call("actuate").
		Ops(4)
	b.Func("actuate").
		Ops(30) // command computation + bus write
	p, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	// Analyze with the paper's setup: 1KB 4-way cache with 16-byte
	// lines, pfail = 1e-4, pWCET read at exceedance 1e-15.
	results, err := pwcet.AnalyzeAll(p, pwcet.Query{Pfail: 1e-4})
	if err != nil {
		log.Fatal(err)
	}

	none := results[pwcet.None]
	fmt.Printf("program: %s (%d bytes of code)\n", p.Name, p.CodeBytes())
	fmt.Printf("fault-free WCET: %d cycles\n", none.FaultFreeWCET)
	fmt.Printf("block failure probability (eq. 1): %.4g\n\n", none.Model.PBF)

	for _, m := range []pwcet.Mechanism{pwcet.None, pwcet.RW, pwcet.SRB} {
		r := results[m]
		fmt.Printf("%-5s pWCET@1e-15 = %6d cycles  (%.2fx fault-free, gain vs none %.0f%%)\n",
			m.String()+":", r.PWCET,
			float64(r.PWCET)/float64(r.FaultFreeWCET),
			100*pwcet.Gain(none, r))
	}

	// The full exceedance curve (Figure 3 of the paper) is available
	// per mechanism; print a few points of the unprotected one.
	fmt.Println("\nunprotected exceedance curve (first points):")
	for i, pt := range none.ExceedanceCurve() {
		if i >= 5 {
			break
		}
		fmt.Printf("  P(WCET > %d cycles) = %.3g\n", pt.Value, pt.Prob)
	}
}
