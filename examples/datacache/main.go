// Datacache: joint instruction + data cache pWCET analysis — the
// paper's "transpose the hardware and corresponding analyses to data
// caches" future-work direction, implemented.
//
// The example authors a filter kernel with explicit scalar loads and
// stores, attaches a data cache beside the instruction cache (same
// pfail, independent fault population), and compares the three
// architectures when *both* caches suffer permanent faults. The per-set
// penalty distributions of the two caches convolve because their fault
// locations are independent.
package main

import (
	"fmt"
	"log"

	pwcet "repro"
)

func main() {
	// An IIR filter section: state loads, coefficient loads, state and
	// output stores, all scalars at fixed addresses (the analyzable
	// subset; unknown-address accesses would classify always-miss).
	const (
		stateBase = 0x8000
		coefBase  = 0x8100
		outBase   = 0x8200
	)
	b := pwcet.NewProgram("iir")
	b.Func("main").
		Ops(12).
		Loop(32, func(l *pwcet.Body) {
			l.Load(stateBase). // x[n-1]
						Load(stateBase + 4). // x[n-2]
						Load(coefBase).      // b0
						Load(coefBase + 4).  // b1
						Ops(6).              // multiply-accumulate
						Store(stateBase).    // shift state
						Store(outBase)       // y[n]
		}).
		Ops(4)
	p, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	icache := pwcet.PaperCache()
	dcache := pwcet.CacheConfig{
		Sets: 16, Ways: 2, BlockBytes: 16, HitLatency: 1, MemLatency: 100,
	}

	fmt.Printf("IIR kernel: %dB code, I-cache 1KB/4-way, D-cache 512B/2-way, pfail=1e-3\n\n", p.CodeBytes())
	for _, m := range []pwcet.Mechanism{pwcet.None, pwcet.SRB, pwcet.RW} {
		instrOnly, err := pwcet.Analyze(p, pwcet.Query{Cache: icache, Pfail: 1e-3, Mechanism: m})
		if err != nil {
			log.Fatal(err)
		}
		joint, err := pwcet.Analyze(p, pwcet.Query{
			Cache: icache, Pfail: 1e-3, Mechanism: m, DataCache: &dcache,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-5s I-only: WCET %6d, pWCET %6d | I+D: WCET %6d, pWCET %6d\n",
			m.String()+":", instrOnly.FaultFreeWCET, instrOnly.PWCET,
			joint.FaultFreeWCET, joint.PWCET)
	}

	fmt.Println("\nthe joint analysis applies the mechanism to both caches; the data")
	fmt.Println("working set here is tiny (3 blocks), so data faults matter mostly")
	fmt.Println("through whole-set failures — exactly the case RW and SRB remove.")
}
