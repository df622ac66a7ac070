package dist

import (
	"fmt"
	"math"
)

// maxDenseSpan caps the dense accumulator at 4M float64 cells (32 MB)
// no matter how many pairs a convolution produces.
const maxDenseSpan = 1 << 22

// Convolve returns the distribution of the sum of two independent
// random variables. This is the analysis hot path — ConvolveAllWith
// runs it at every merge node of the per-set penalty reduction — so it
// avoids map churn entirely:
//
//   - a degenerate operand turns the convolution into a Shift;
//   - when the result's value span is small relative to the number of
//     atom pairs (the common case: penalties share the miss-penalty
//     granularity), products are accumulated into a single
//     preallocated buffer indexed by value offset, O(n·m) with no
//     sorting and no allocation beyond the buffer and the result;
//   - when the raw span is too wide but both supports share a common
//     value stride g > 1 (penalties are multiples of the miss penalty,
//     so whole reduction trees do), the same flat accumulation runs on
//     the compressed grid base + k·g with span/g cells — bitwise the
//     same atoms in the same order, at a fraction of the buffer;
//   - otherwise — wide-span operands, the shape of the high levels of
//     ConvolveAllWith's merge tree — the n sorted per-atom sum streams
//     are merged through a deterministic k-way heap, O(n·m·log k) with
//     k = min(n, m) and O(k) extra memory, instead of materializing
//     and sorting all n·m pairs.
//
// Total mass is conserved to floating-point accuracy (the result's
// mass is the product of the operands' masses); no renormalization
// happens. Pair products that underflow to exactly 0 are dropped on
// both paths, preserving the probs[i] > 0 invariant (the lost mass is
// below the smallest subnormal, far under any tolerance here).
//
// Convolve panics when an extreme pair sum (Min+Min or Max+Max) would
// overflow int64 — like Shift, silently wrapping would corrupt the
// value domain and with it the soundness contract.
func (d *Dist) Convolve(o *Dist) *Dist {
	if checkEnabled {
		d.check("Convolve operand")
		o.check("Convolve operand")
	}
	n, m := len(d.values), len(o.values)
	checkSumOverflow(d.values[0], o.values[0])
	checkSumOverflow(d.values[n-1], o.values[m-1])
	if n == 1 {
		// P(X = v) = 1: the sum is o shifted by v, scaled by the
		// (unit) mass.
		return o.Shift(d.values[0])
	}
	if m == 1 {
		return d.Shift(o.values[0])
	}
	base := d.values[0] + o.values[0]
	// The span is compared as (span - 1) in uint64: the difference of
	// the two extreme sums always fits there even when it exceeds
	// MaxInt64 — including the extreme case where it is 2^64 - 1 and
	// span itself would wrap to 0.
	diff := uint64(d.values[n-1]+o.values[m-1]) - uint64(base)
	if diff < uint64(denseLimit(n*m)) {
		if diff >= minStrideCells {
			if g := strideGCD(d, o); g > 1 {
				return d.convolveDenseStride(o, base, int(diff/g)+1, g)
			}
		}
		return d.convolveDense(o, base, int(diff)+1)
	}
	// A raw span too wide for the dense buffer often compresses onto a
	// coarse grid: penalty values are multiples of the cache miss
	// penalty, so whole reduction trees share a common value stride.
	if g := strideGCD(d, o); g > 1 {
		if cells := diff/g + 1; cells <= uint64(denseLimit(n*m)) {
			return d.convolveDenseStride(o, base, int(cells), g)
		}
	}
	return d.convolveKWay(o)
}

// minStrideCells is the raw span under which the plain dense buffer is
// already cache-resident and the stride grid would only add the offset
// precomputation. Above it, a shared stride g > 1 divides the buffer
// (the two dense paths produce bitwise-identical results, so the choice
// is purely a locality matter).
const minStrideCells = 1 << 15

// strideGCD returns the greatest common divisor of every adjacent value
// difference of both operands: the coarsest grid base + k·g that holds
// every pair sum.
func strideGCD(d, o *Dist) uint64 {
	return valuesGCD(valuesGCD(0, d.values), o.values)
}

// valuesGCD folds the adjacent differences of a sorted value slice into
// a running gcd g (0 acts as the gcd identity). Differences are taken
// in uint64 — values are sorted ascending, so each difference is
// positive and exact even when the raw int64 subtraction would
// overflow. Returns early on 1 (the common case for unstructured
// supports).
func valuesGCD(g uint64, vs []int64) uint64 {
	for i := 1; i < len(vs); i++ {
		diff := uint64(vs[i]) - uint64(vs[i-1])
		for diff != 0 {
			g, diff = diff, g%diff
		}
		if g == 1 {
			return 1
		}
	}
	return g
}

// checkSumOverflow panics when a+b is not representable in int64. The
// interior pair sums of a convolution are bracketed by the extreme
// ones, so Convolve only needs this at the two extremes.
func checkSumOverflow(a, b int64) {
	if (b > 0 && a > math.MaxInt64-b) || (b < 0 && a < math.MinInt64-b) {
		panic(fmt.Sprintf("dist: Convolve overflows int64: %d + %d is not representable", a, b))
	}
}

// denseLimit bounds the dense accumulator size: proportional to the
// O(n·m) work the convolution does anyway, hard-capped at
// maxDenseSpan.
func denseLimit(pairs int) int {
	l := 8*pairs + 1024
	if l > maxDenseSpan || l < 0 {
		return maxDenseSpan
	}
	return l
}

// convolveDense accumulates pair products into a value-indexed buffer.
func (d *Dist) convolveDense(o *Dist, base int64, span int) *Dist {
	buf := make([]float64, span)
	for i, vi := range d.values {
		pi := d.probs[i]
		off := vi - base
		for j, vj := range o.values {
			buf[off+vj] += pi * o.probs[j]
		}
	}
	cnt := 0
	for _, p := range buf {
		if p > 0 {
			cnt++
		}
	}
	values := make([]int64, 0, cnt)
	probs := make([]float64, 0, cnt)
	for k, p := range buf {
		if p > 0 {
			values = append(values, base+int64(k))
			probs = append(probs, p)
		}
	}
	return fromSorted(values, probs)
}

// convolveDenseStride is convolveDense on the compressed grid
// base + k·g: when both operands' supports share a stride g > 1, every
// pair sum lands on the grid and the accumulator needs span/g cells
// instead of span — a 20 MB cache-thrashing buffer shrinks to a
// cache-resident one for miss-penalty-aligned supports. The inner loop
// adds into a contiguous offset-indexed row (ooff is precomputed once,
// no per-atom division or search), and a cell's contributions arrive in
// the same ascending-i order as convolveDense, so the choice between
// the two dense paths can never change an atom's accumulation order.
func (d *Dist) convolveDenseStride(o *Dist, base int64, cells int, g uint64) *Dist {
	buf := make([]float64, cells)
	ooff := denseOffsets(o, g)
	for i, vi := range d.values {
		pi := d.probs[i]
		row := buf[(uint64(vi)-uint64(d.values[0]))/g:]
		for j, oj := range ooff {
			row[oj] += pi * o.probs[j]
		}
	}
	cnt := 0
	for _, p := range buf {
		if p > 0 {
			cnt++
		}
	}
	values := make([]int64, 0, cnt)
	probs := make([]float64, 0, cnt)
	for k, p := range buf {
		if p > 0 {
			// Exact even when k·g alone exceeds int64: the sum is
			// computed mod 2^64 and the true value fits (extreme pair
			// sums were overflow-checked by the caller).
			values = append(values, int64(uint64(base)+uint64(k)*g))
			probs = append(probs, p)
		}
	}
	return fromSorted(values, probs)
}

// denseOffsets precomputes each atom's cell offset (v - Min) / g.
func denseOffsets(o *Dist, g uint64) []int {
	ooff := make([]int, len(o.values))
	for j, vj := range o.values {
		ooff[j] = int((uint64(vj) - uint64(o.values[0])) / g)
	}
	return ooff
}

// streamHead is one k-way-merge cursor: the next unconsumed sum of
// stream i (the i-th atom of the smaller operand paired with the
// ascending atoms of the larger one).
type streamHead struct {
	sum int64
	i   int32
}

// convolveKWay merges the k sorted per-atom sum streams of the smaller
// operand with a binary min-heap, accumulating equal sums as they pop
// out in order. Used when the value span is too wide for the dense
// buffer: O(n·m·log k) time and O(k) transient memory replace the old
// materialize-and-sort path's O(n·m) pair buffer and O(n·m·log(n·m))
// sort, which made high reduction-tree levels sort-bound.
//
// The heap orders by (sum, stream index), so pops — and with them the
// per-value accumulation order — are a pure function of the operands:
// the result is deterministic, and for every output value the
// contributions are summed in ascending stream order, the same order
// the dense path uses.
//
// The sift is a local closure rather than the shared siftDownFunc on
// purpose: this loop runs O(n·m) times on the wide-span hot path and
// the indirect comparison call costs ~30% there (measured on
// BenchmarkConvolveWideSpan).
func (d *Dist) convolveKWay(o *Dist) *Dist {
	if len(d.values) > len(o.values) {
		d, o = o, d
	}
	k, m := len(d.values), len(o.values)
	h := make([]streamHead, k)
	for i, vi := range d.values {
		h[i] = streamHead{sum: vi + o.values[0], i: int32(i)}
	}
	ptr := make([]int, k)
	less := func(a, b streamHead) bool {
		return a.sum < b.sum || (a.sum == b.sum && a.i < b.i)
	}
	siftDown := func(root int) {
		for {
			child := 2*root + 1
			if child >= len(h) {
				return
			}
			if r := child + 1; r < len(h) && less(h[r], h[child]) {
				child = r
			}
			if !less(h[child], h[root]) {
				return
			}
			h[root], h[child] = h[child], h[root]
			root = child
		}
	}
	for i := k/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	// Wide-span operands rarely collide on sums, so the output is
	// usually close to k·m atoms; presize for it (bounded, so a huge
	// convolution starts at a sane capacity and grows from there).
	est := k * m
	if est > 1<<22 {
		est = 1 << 22
	}
	values := make([]int64, 0, est)
	probs := make([]float64, 0, est)
	for len(h) > 0 {
		top := h[0]
		i := int(top.i)
		p := d.probs[i] * o.probs[ptr[i]]
		if last := len(values) - 1; last >= 0 && values[last] == top.sum {
			probs[last] += p
		} else if p > 0 {
			values = append(values, top.sum)
			probs = append(probs, p)
		}
		ptr[i]++
		if ptr[i] < m {
			h[0].sum = d.values[i] + o.values[ptr[i]]
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(0)
	}
	return fromSorted(values, probs)
}
