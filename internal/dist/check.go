package dist

import (
	"fmt"
	"math"
)

// checkMassTolerance bounds how far the total mass of a checked
// distribution may exceed 1. Operations conserve mass only to
// floating-point accuracy and never renormalize, so after long
// Convolve/Coarsen chains the mass sits a few ulps off; 1e-6 is orders
// of magnitude above any legitimate drift and orders below any real
// corruption. Masses below 1 are legitimate: Convolve's result mass is
// the product of its operands' masses, and intermediate weighted terms
// carry sub-unit mass by design — but mass can never legitimately grow
// past 1.
const checkMassTolerance = 1e-6

// check asserts the representation invariants of a Dist and panics with
// the violation when one fails. It is called from construction sites
// under `if checkEnabled` — the pwcetcheck build tag (see check_on.go);
// in a default build the guard is constant-false and this function is
// never reached.
//
// Invariants checked:
//
//   - parallel slices: len(values) == len(probs) == len(ccdf) > 0;
//   - values strictly increasing (sorted, duplicate-free);
//   - every probability finite and > 0 (zero atoms are dropped by
//     construction; they would corrupt Max and QuantileExceedance);
//   - total mass at most 1 + checkMassTolerance (sub-unit masses are
//     legitimate intermediates; super-unit mass is always corruption);
//   - the ccdf is exactly the backward suffix sum of probs (bitwise:
//     fromSorted computes it in one deterministic order and every
//     operation preserves or recomputes it the same way), which implies
//     ccdf[len-1] == 0 and monotone non-increase.
//
// The int64 overflow pre-checks of Shift and Convolve are unconditional
// production code, not part of the sanitizer.
func (d *Dist) check(where string) {
	n := len(d.values)
	if n == 0 || len(d.probs) != n || len(d.ccdf) != n {
		panic(fmt.Sprintf("pwcetcheck: %s: malformed Dist: %d values, %d probs, %d ccdf",
			where, n, len(d.probs), len(d.ccdf)))
	}
	checkAtoms(where, d.values, d.probs)
	var tail float64
	for i := n - 1; i >= 0; i-- {
		if d.ccdf[i] != tail {
			panic(fmt.Sprintf("pwcetcheck: %s: ccdf[%d] = %g, want suffix sum %g", where, i, d.ccdf[i], tail))
		}
		tail += d.probs[i]
	}
}

// checkAtoms asserts check's invariants on bare atoms: values strictly
// increasing, every probability finite and > 0, and total mass at most
// 1 + checkMassTolerance. The coarsener merges an over-cap sum straight
// from the scratch's read-out, before any Dist is built from it, so
// coarsenAtoms checks its input with it under pwcetcheck.
func checkAtoms(where string, values []int64, probs []float64) {
	var mass float64
	for i := len(values) - 1; i >= 0; i-- {
		if i > 0 && values[i-1] >= values[i] {
			panic(fmt.Sprintf("pwcetcheck: %s: atoms not strictly sorted: values[%d]=%d >= values[%d]=%d",
				where, i-1, values[i-1], i, values[i]))
		}
		p := probs[i]
		if math.IsNaN(p) || math.IsInf(p, 0) || p <= 0 {
			panic(fmt.Sprintf("pwcetcheck: %s: probs[%d] = %g (want finite and > 0)", where, i, p))
		}
		mass += p
	}
	if mass > 1+checkMassTolerance {
		panic(fmt.Sprintf("pwcetcheck: %s: total mass %g exceeds 1 by more than %g", where, mass, checkMassTolerance))
	}
}
