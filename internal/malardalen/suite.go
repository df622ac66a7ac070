// Package malardalen provides the 25-benchmark suite used by the paper's
// evaluation (Section IV.A: "25 benchmarks from the Mälardalen WCET
// benchmark suite").
//
// Substitution note (see DESIGN.md): the paper analyzes MIPS R2000/R3000
// binaries produced by gcc 4.1 -O0. This repository cannot ship those
// binaries, so each benchmark is a synthetic structured program mirroring
// the control structure, loop bounds and code-size-to-cache-size ratio of
// its Mälardalen namesake, assembled deterministically by
// internal/program. The static analyses consume exactly the information a
// binary provides (instruction addresses per basic block, CFG, loop
// bounds), so the pipeline is unchanged; only absolute cycle counts
// differ from the paper's.
//
// The suite deliberately spans the paper's four behaviour categories
// (Figure 4) against the 1KB 4-way 16-byte-line cache:
//
//   - spatial-only programs whose hot code exceeds the cache (streaming:
//     nsichneu, statemate, cover, fdct, jfdctint, ndes);
//   - tight loops resident in a single way per set (MRU-temporal: bs,
//     fibcall, insertsort, prime, expint, ns, cnt, bsort100,
//     janne_complex, fir);
//   - loops whose footprint needs several ways per set (deep-temporal:
//     crc, edn, fft, ludcmp, qurt, ud);
//   - mixed programs with both behaviours (adpcm, matmult, minver).
package malardalen

import (
	"fmt"
	"sort"

	"repro/internal/program"
)

// builders maps benchmark names to their program constructors.
var builders = map[string]func() *program.Program{
	"adpcm":         adpcm,
	"bs":            bs,
	"bsort100":      bsort100,
	"cnt":           cnt,
	"cover":         cover,
	"crc":           crc,
	"edn":           edn,
	"expint":        expint,
	"fdct":          fdct,
	"fft":           fft,
	"fibcall":       fibcall,
	"fir":           fir,
	"insertsort":    insertsort,
	"janne_complex": janneComplex,
	"jfdctint":      jfdctint,
	"ludcmp":        ludcmp,
	"matmult":       matmult,
	"minver":        minver,
	"ndes":          ndes,
	"ns":            ns,
	"nsichneu":      nsichneu,
	"prime":         prime,
	"qurt":          qurt,
	"statemate":     statemate,
	"ud":            ud,
}

// Names returns the benchmark names in deterministic (sorted) order.
func Names() []string {
	out := make([]string, 0, len(builders))
	for n := range builders {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Get builds the named benchmark program.
func Get(name string) (*program.Program, error) {
	b, ok := builders[name]
	if !ok {
		return nil, fmt.Errorf("malardalen: unknown benchmark %q", name)
	}
	return b(), nil
}

// MustGet is Get for known-constant names; it panics on unknown names.
func MustGet(name string) *program.Program {
	p, err := Get(name)
	if err != nil {
		panic(err)
	}
	return p
}
