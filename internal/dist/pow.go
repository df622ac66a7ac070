package dist

import "fmt"

// Pow returns the distribution of the sum of k independent copies of
// the receiver — the k-fold convolution power d^⊗k — computed by
// exponentiation by squaring: O(log k) convolutions instead of the
// k−1 of a sequential fold. Distributions form a commutative monoid
// under Convolve with Degenerate(0) as the neutral element, which is
// exactly what makes the square-and-multiply recombination valid;
// ConvolveAllWith exploits the same structure implicitly by sharing the
// repeated subtrees of its merge plan when many inputs are equal.
//
// k == 0 returns Degenerate(0); k == 1 returns the receiver itself.
// Pow panics for k < 0 and, like Convolve, when an extreme support
// value of the result (k·Min or k·Max) is not representable in int64 —
// by the bracketing argument of checkSumOverflow, every intermediate
// square and partial product then fits too, so Pow panics exactly when
// the sequential fold would.
//
// Pow is exact: no coarsening is applied and the support is identical
// to the fold's. Because floating-point addition is not associative,
// atom probabilities may differ from the sequential fold's by
// reassociation rounding of a few ulps (FuzzPow bounds the drift); the
// combine order is a pure function of k, so the result itself is
// deterministic.
func (d *Dist) Pow(k int) *Dist {
	if k < 0 {
		panic(fmt.Sprintf("dist: Pow: negative exponent %d", k))
	}
	if k == 0 {
		return Degenerate(0)
	}
	checkPowOverflow(d.values[0], k)
	checkPowOverflow(d.values[len(d.values)-1], k)
	// LSB-first binary decomposition of k: sq walks d^1, d^2, d^4, ...
	// and acc multiplies in the powers at the set bits.
	var acc *Dist
	sq := d
	for {
		if k&1 == 1 {
			if acc == nil {
				acc = sq
			} else {
				acc = acc.Convolve(sq)
			}
		}
		k >>= 1
		if k == 0 {
			return acc
		}
		sq = sq.Convolve(sq)
	}
}

// checkPowOverflow panics when v·k overflows int64. The extreme
// support values of d^⊗k are k·Min and k·Max; interior sums are
// bracketed by them, mirroring Convolve's extreme-pair check.
func checkPowOverflow(v int64, k int) {
	if v == 0 {
		return
	}
	k64 := int64(k)
	if prod := v * k64; prod/k64 != v {
		panic(fmt.Sprintf("dist: Pow overflows int64: %d * %d is not representable", v, k))
	}
}
