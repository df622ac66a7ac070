package dist

import (
	"fmt"
	"math"
	"math/bits"
)

// maxDenseSpan caps the dense accumulator at 4M float64 cells (32 MiB)
// no matter how many pairs a convolution produces. Accumulators above
// maxPooledLen cells are allocated per call and never pooled.
const maxDenseSpan = 1 << 22

// Convolve returns the distribution of the sum of two independent
// random variables. It is ConvolveCoarsen with the cap disabled. The
// paths, chosen by the operands' shapes:
//
//   - a degenerate operand turns the convolution into a Shift;
//   - when the result's value span is small relative to the number of
//     atom pairs (the common case: penalties share the miss-penalty
//     granularity), one dense kernel (convolveDenseStride) accumulates
//     the products in a value-indexed accumulator on the grid
//     base + k·g, O(n·m) with no sorting. The accumulator and the inner
//     operand's layout come from a pooled scratch (see scratch), so the
//     kernel allocates only the result. g is 1 — a plain value-offset
//     accumulator — unless the span is large and both supports share a
//     common value stride g > 1 (penalties are multiples of the miss
//     penalty, so whole reduction trees do); then the grid has span/g
//     cells, bitwise the same atoms in the same order at a fraction of
//     the accumulator, and a raw span too wide for it may still fit;
//   - the dense kernel sorts each pair of atoms by the binary exponents
//     of their probabilities alone. Pairs whose products are provably
//     below half the smallest subnormal (deep-tail dust times deep-tail
//     dust) round to +0 and are skipped; adding +0 changes no cell.
//     Pairs whose products may be subnormal get them from exact integer
//     arithmetic (addTinyProducts): on the x86 CPU measured (README,
//     "Subnormal products in software") a multiply with a nonzero
//     subnormal result costs about 65 ns against a few ns for a normal
//     one, while a product that rounds to +0 and an add with subnormal
//     operands run at full speed. The integer product is the IEEE
//     product on every CPU, so the result is bit for bit the full
//     product sum either way; the software path pays off only where
//     the CPU's subnormal multiply is slow;
//   - calls of at least segmentMinPairs pairs also plan a segment
//     (planSegment): the inner atoms whose exponent is at least a floor
//     E, copied into a cleared, value-indexed array. Every row whose
//     products with them are all normal adds the segment into its cells
//     with one contiguous multiply-then-add loop (axpy: AVX2 assembly on
//     amd64 CPUs that have it, a Go loop elsewhere) instead of
//     scattering them one by one; the empty cells add +0. The floor
//     maximises the scatter work saved net of the segment's cells, and
//     no segment is built when none pays;
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
	return d.ConvolveCoarsen(o, 0, CoarsenLeastError)
}

// ConvolveCoarsen returns d.Convolve(o).CoarsenToWith(maxSupport,
// strategy), bit for bit, without building the uncoarsened sum: when
// the dense kernel's sum is over the cap, the coarsener merges it
// straight from the scratch's read-out. It panics on an unknown
// strategy when the cap binds, as CoarsenToWith does.
func (d *Dist) ConvolveCoarsen(o *Dist, maxSupport int, strategy CoarsenStrategy) *Dist {
	out, p := d.convolveSparse(o)
	if out != nil {
		return out.CoarsenToWith(maxSupport, strategy)
	}
	s := getScratch()
	out = s.convolveDenseStride(d, o, p, coarsening{target: maxSupport, strategy: strategy})
	s.put()
	return out
}

// convolveCoarsen is ConvolveCoarsen on a scratch the caller holds,
// with c saying how an over-cap sum is coarsened.
func (s *scratch) convolveCoarsen(d, o *Dist, c coarsening) *Dist {
	out, p := d.convolveSparse(o)
	if out != nil {
		return s.coarsen(out, c)
	}
	return s.convolveDenseStride(d, o, p, c)
}

// densePlan is the grid of a dense convolution: cells accumulator cells
// for the values base + k·g.
type densePlan struct {
	base  int64
	cells int
	g     uint64
}

// convolveSparse runs the convolution paths that need no scratch — a
// Shift for a degenerate operand, the k-way merge for a span too wide
// for the accumulator — and returns their result, or nil and the grid
// of the dense kernel.
func (d *Dist) convolveSparse(o *Dist) (*Dist, densePlan) {
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
		return o.Shift(d.values[0]), densePlan{}
	}
	if m == 1 {
		return d.Shift(o.values[0]), densePlan{}
	}
	base := d.values[0] + o.values[0]
	// The span is compared as (span - 1) in uint64: the difference of
	// the two extreme sums always fits there even when it exceeds
	// MaxInt64 — including the extreme case where it is 2^64 - 1 and
	// span itself would wrap to 0.
	diff := uint64(d.values[n-1]+o.values[m-1]) - uint64(base)
	if diff < uint64(denseLimit(n*m)) {
		g := uint64(1)
		if diff >= minStrideCells {
			if s := strideGCD(d, o); s > 1 {
				g = s
			}
		}
		return nil, densePlan{base: base, cells: int(diff/g) + 1, g: g}
	}
	// A raw span too wide for the accumulator often compresses onto a
	// coarse grid: penalty values are multiples of the cache miss
	// penalty, so whole reduction trees share a common value stride.
	if g := strideGCD(d, o); g > 1 {
		if cells := diff/g + 1; cells <= uint64(denseLimit(n*m)) {
			return nil, densePlan{base: base, cells: int(cells), g: g}
		}
	}
	return d.convolveKWay(o), densePlan{}
}

// minStrideCells is the raw span under which the g = 1 buffer is
// already cache-resident and the gcd pass that finds a shared stride is
// not worth its time. Above it, a shared stride g > 1 divides the
// buffer (every grid gives bitwise-identical results, so the choice is
// purely a locality matter).
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

// convolveDenseStride is the dense convolution kernel: it accumulates
// pair products into a value-indexed buffer on the grid base + k·g.
// g = 1 is the plain value-offset buffer; when both operands' supports
// share a stride g > 1, every pair sum lands on the grid and the
// accumulator needs span/g cells instead of span — a 20 MB
// cache-thrashing buffer shrinks to a cache-resident one for
// miss-penalty-aligned supports. The outer loop runs over d in
// ascending order and adds each of its atoms' products into one
// contiguous offset-indexed row, where every cell receives at most one
// product; so each cell sums its products in ascending outer index,
// whatever g is and in whatever order a row visits the inner atoms.
//
// A row splits the inner atoms in three by the sum of the two biased
// exponents (see innerBands): products that are provably normal use
// the multiply instruction, products that may be subnormal use
// addTinyProducts, which adds the same float64 in integer arithmetic,
// and products that must round to +0 are skipped, since adding +0 to a
// non-negative cell is the identity. A row whose products with the
// whole segment are normal first adds pi times the segment (see
// innerBands) into its cells with one axpy call and then scatters only
// the atoms after the segment's prefix. So every cell still sums
// exactly the same nonzero products in the same order, bit for bit.
// The explicit float64 conversion keeps the hardware products rounded
// on targets that would otherwise fuse the multiply-add, and axpy
// rounds each product too, so every path adds a rounded product
// everywhere.
//
// The accumulator comes from s and is all zero on entry. The read-out
// takes the nonzero cells in value order and clears each one as it
// takes it, so the accumulator is all zero again on return. A sum that
// fits c's cap is read out into arrays the result owns; an over-cap one
// into s's read-out arrays, from which c coarsens it.
func (s *scratch) convolveDenseStride(d, o *Dist, p densePlan, c coarsening) *Dist {
	buf := grow(&s.acc, p.cells)
	in := s.bandInner(d, o, p.g)
	for i, vi := range d.values {
		pi := d.probs[i]
		row := buf[(uint64(vi)-uint64(d.values[0]))/p.g:]
		lo, hi := 0, len(in.off)
		ep := biasedExp(pi)
		if ep < in.hwAll {
			hw, kept := in.split(ep)
			addTinyProducts(row, in.off[hw:kept], in.probs[hw:kept], pi)
			hi = hw
		}
		if in.segmentRow(ep) {
			axpy(row[in.segLo:], in.seg, pi)
			lo = in.segAtoms
		}
		off := in.off[lo:hi]
		q := in.probs[lo:][:len(off)]
		for j, oj := range off {
			row[oj] += float64(pi * q[j])
		}
	}
	cnt := 0
	for _, q := range buf {
		if q > 0 {
			cnt++
		}
	}
	var values []int64
	var probs []float64
	if c.binds(cnt) {
		values, probs = grow(&s.values, cnt), grow(&s.probs, cnt)
	} else {
		values, probs = make([]int64, cnt), make([]float64, cnt)
	}
	j := 0
	for k, q := range buf {
		if q > 0 {
			// Exact even when k·g alone exceeds int64: the sum is
			// computed mod 2^64 and the true value fits (extreme pair
			// sums were overflow-checked by the caller).
			values[j], probs[j] = int64(uint64(p.base)+uint64(k)*p.g), q
			buf[k] = 0
			j++
		}
	}
	if checkEnabled {
		s.checkZero()
	}
	if c.binds(cnt) {
		return s.coarsenAtoms(values, probs, c)
	}
	return fromSorted(values, probs)
}

// The dense kernel classifies each pair of probabilities by the sum S
// of their biased binary exponents. A positive float64 with biased
// exponent E (0 for subnormals) lies in [2^(E−1023), 2^(E−1022)) when
// normal and below 2^−1022 when subnormal, and every probability is
// below 2, so E <= 1023:
//
//   - S <= 969: the product is below 2^−1075, at most half the smallest
//     subnormal, and rounds to +0 (2^−1075 itself is a tie that rounds
//     to the even +0);
//   - 970 <= S <= 1023: the product is below 2^−1021, where doubles are
//     spaced 2^−1074 apart, so it may be subnormal;
//   - S >= 1024: both factors are normal and the product is at least
//     2^−1022, a normal number.
const (
	minKeptExpSum     = 970
	minHardwareExpSum = 1024
)

// biasedExp returns the biased binary exponent of a non-negative
// float64: 0 for zero and subnormals, 1..2046 for normal numbers.
func biasedExp(x float64) int { return int(math.Float64bits(x) >> 52) }

// addTinyProducts adds p·q[j] into row[off[j]] for every j, where
// the biased exponents of p and each q[j] sum to 970..1023. Each
// product is bit for bit the IEEE product, computed in integers
// because the multiply instruction is slow on subnormal results (see
// Convolve). With x = m·2^(e−1075), m the 53-bit integer significand
// and e = max(E, 1), the product is (mp·mq / 2^s)·2^−1074 with
// s = 1076 − ep − eq in [52, 106]. It is below 2^−1021, where the
// doubles are exactly the multiples of 2^−1074, so rounding
// mp·mq / 2^s half to even gives the bit pattern of the result: a
// subnormal, or, from 2^52 on, the normal number with exponent field 1
// (and 2^53 encodes 2^−1021 itself).
func addTinyProducts(row []float64, off []int, q []float64, p float64) {
	mp, ep := significand(p)
	q = q[:len(off)]
	for j, oj := range off {
		mq, eq := significand(q[j])
		hi, lo := bits.Mul64(mp, mq) // mp·mq < 2^106
		// y is mp·mq >> 50 with the OR of the 50 dropped bits (the
		// sticky bit) in its bit 0, and t = s − 50 is in [2, 56], so
		// the rounding bit sits at t−1 >= 1 and the sticky bit only
		// decides ties. Masking the shift counts with 63 changes no
		// value and spares the compiler's checks for counts >= 64.
		const low = 1<<50 - 1
		y := hi<<14 | lo>>50 | (lo&low+low)>>50
		t := uint(1026-ep-eq) & 63
		// Round half to even: add just under a half plus the kept lsb.
		row[oj] += math.Float64frombits((y + 1<<((t-1)&63) - 1 + y>>t&1) >> t)
	}
}

// significand splits a positive finite float64 into its 53-bit integer
// significand m and effective biased exponent e = max(E, 1), so that
// x = m·2^(e−1075).
func significand(x float64) (m uint64, e int) {
	b := math.Float64bits(x)
	m, e = b&(1<<52-1), int(b>>52)
	if e == 0 {
		return m, 1
	}
	return m | 1<<52, e
}

// innerBands is the inner operand of a dense convolution laid out for
// the product classes: its atoms' cell offsets and probabilities in
// bands of descending binary exponent, value order within each band.
// Each class is then a contiguous run of the layout, found by two
// prefix lookups (split), and the rows with ep >= hwAll multiply every
// atom in hardware (one comparison). When no pair of the two operands
// can have a subnormal product and the segment, if any, takes every
// atom, the atoms stay in value order with hwAll = 0, so every row
// multiplies every atom in hardware.
//
// The segment is the band prefix of the atoms with biased exponent
// >= segExp, copied into a cleared, value-indexed array over their
// cell range [segLo, segLo+len(seg)). A row whose products with all of
// them are normal (segmentRow) adds pi·seg into its cells with one
// axpy and scatters only the atoms after the prefix. Its empty cells
// add pi·0 = +0, the identity on a non-negative cell, and each cell
// still receives at most one product per row, so the row sums the
// same products as the scatter, bit for bit. segExp = 0 means there is
// no segment.
type innerBands struct {
	off    []int
	probs  []float64
	hwAll  int
	maxExp int   // largest biased exponent among the inner atoms
	ends   []int // ends[k]: the number of atoms with exponent >= maxExp-k

	seg      []float64
	segLo    int // the cell of seg[0]
	segAtoms int // the number of atoms in the segment: a prefix of off
	segExp   int // the segment's exponent floor E
}

// split returns, for a row with biased exponent ep < hwAll, the number
// of leading atoms whose products are normal (S >= 1024) and the
// number whose products can be nonzero (S >= 970). The atoms in
// between go to addTinyProducts; the rest round to +0.
func (b *innerBands) split(ep int) (hw, kept int) {
	return b.prefix(minHardwareExpSum - ep), b.prefix(minKeptExpSum - ep)
}

// segmentRow reports whether a row with biased exponent ep adds the
// segment: whether its product with every segment atom is normal,
// ep + segExp >= 1024. No row qualifies when segExp = 0, since every
// probability has ep <= 1023.
func (b *innerBands) segmentRow(ep int) bool {
	return ep+b.segExp >= minHardwareExpSum
}

// prefix returns the number of leading atoms with biased exponent >= e.
func (b *innerBands) prefix(e int) int {
	k := min(b.maxExp-e, len(b.ends)-1)
	if k < 0 {
		return 0
	}
	return b.ends[k]
}

// bandInner lays o out for a dense convolution with outer operand d on
// the stride-g grid, in s's layout arrays. The bands are a stable
// counting sort of o's atoms by exponent, O(len(o) + exponent range),
// and are only built when some pair of d and o can have a subnormal
// product or the segment leaves some atoms out. Calls with at least
// segmentMinPairs pairs plan a segment (planSegment), which is cleared
// before it is filled.
func (s *scratch) bandInner(d, o *Dist, g uint64) innerBands {
	minP, minQ, maxQ := 2047, 2047, 0
	for _, p := range d.probs {
		minP = min(minP, biasedExp(p))
	}
	for _, q := range o.probs {
		e := biasedExp(q)
		minQ = min(minQ, e)
		maxQ = max(maxQ, e)
	}
	floor := 0
	if len(d.values)*len(o.values) >= segmentMinPairs {
		floor = planSegment(d, o, g)
	}
	var b innerBands
	pre := len(o.values) // the atoms with exponent >= floor
	off := grow(&s.off, len(o.values))
	if minP+minQ >= minHardwareExpSum && floor <= minQ {
		for j, vj := range o.values {
			off[j] = int((uint64(vj) - uint64(o.values[0])) / g)
		}
		b = innerBands{off: off, probs: o.probs}
	} else {
		// ends first counts each band, then holds its start, and after
		// the scatter — in ascending j, so value order within a band —
		// its end.
		ends := grow(&s.ends, maxQ-minQ+1)
		clear(ends)
		for _, q := range o.probs {
			ends[maxQ-biasedExp(q)]++
		}
		start := 0
		for k, c := range ends {
			ends[k] = start
			start += c
		}
		probs := grow(&s.inner, len(o.values))
		for j, q := range o.probs {
			k := maxQ - biasedExp(q)
			off[ends[k]] = int((uint64(o.values[j]) - uint64(o.values[0])) / g)
			probs[ends[k]] = q
			ends[k]++
		}
		b = innerBands{off: off, probs: probs, hwAll: minHardwareExpSum - minQ, maxExp: maxQ, ends: ends}
		pre = b.prefix(floor)
	}
	if floor > 0 {
		lo, hi := b.off[0], b.off[0]
		for _, oj := range b.off[:pre] {
			lo, hi = min(lo, oj), max(hi, oj)
		}
		b.seg = grow(&s.seg, hi-lo+1)
		clear(b.seg)
		for j, oj := range b.off[:pre] {
			b.seg[oj-lo] = b.probs[j]
		}
		b.segLo, b.segAtoms, b.segExp = lo, pre, floor
	}
	return b
}

// segmentMinPairs gates the segment: a dense convolution of fewer atom
// pairs plans none. Below it the planner's fixed cost, two
// 1024-bucket exponent histograms, is a visible share of the call, and
// the cold-engine geometry sweep, whose convolutions are nearly all
// small, lost throughput without the gate.
const segmentMinPairs = 1 << 14

// segmentCosts returns the planner's costs, in hundredths of one
// scattered atom: c for adding one segment cell and k for each row's
// axpy call on top of its cells. They are the medians of five runs of
// BenchmarkMultiplyAdd (README, "The segment: normal products in
// AVX2"): the
// scatter takes 1.49 µs per 1024 atoms, the segment 0.21 µs per 1024
// cells with AVX2 and 0.75 µs with the Go loop, and 1024 one-cell
// segments 10.2 µs and 7.4 µs. So c is 0.14 with AVX2 and 0.50 with
// the Go loop (a prototype measured on operands of the combined fold's
// shape used 0.16 and 0.45), and k is 6.7 and 4.4.
func segmentCosts() (c, k int) {
	if useAVX2 {
		return 14, 670
	}
	return 50, 440
}

// planSegment chooses the exponent floor E of the segment for a dense
// convolution with outer operand d and inner operand o on the stride-g
// grid. The segment holds P(E), the inner atoms with biased exponent
// >= E, over their cell range. Every row with ep >= 1024−E then saves
// one scattered atom per atom of P(E) and pays c per cell of that
// range plus k for the call, so E maximises
//
//	rows(ep >= 1024−E) · (|P(E)| − c·cells(E) − k).
//
// Only the exponents present in o are candidates: a higher E with the
// same prefix only adds rows. E = 0 when no floor pays; no row
// qualifies for it. The histograms live on the stack, and the rows are
// only counted when some floor saves a row anything.
func planSegment(d, o *Dist, g uint64) (floor int) {
	// Probabilities are below 2, so their biased exponents are at most
	// 1023. Clamping a larger one would only blur the estimate: which
	// rows and atoms take the segment is decided by the exact exponents.
	var count, first, last [1024]int32
	for j, q := range o.probs {
		e := min(biasedExp(q), 1023)
		if count[e] == 0 {
			first[e] = int32(j)
		}
		last[e] = int32(j)
		count[e]++
	}
	// save[e]: what one row saves with floor e, in the units of c and
	// k. It fits in int32: the dense buffer caps atoms and cells at
	// maxDenseSpan.
	var save [1024]int32
	c, k := segmentCosts()
	atoms, jlo, jhi, pays := 0, len(o.values)-1, 0, false
	for e := 1023; e >= 1; e-- {
		if count[e] > 0 {
			atoms += int(count[e])
			jlo, jhi = min(jlo, int(first[e])), max(jhi, int(last[e]))
			cells := int((uint64(o.values[jhi])-uint64(o.values[jlo]))/g) + 1
			save[e] = int32(100*atoms - c*cells - k)
			pays = pays || save[e] > 0
		}
	}
	if !pays {
		return 0
	}
	var rows [1024]int32 // rows[t]: the rows with exponent t, then >= t
	for _, p := range d.probs {
		rows[min(biasedExp(p), 1023)]++
	}
	for t := 1022; t >= 0; t-- {
		rows[t] += rows[t+1]
	}
	best := int64(0)
	for e := 1023; e >= 1; e-- {
		if gain := int64(rows[minHardwareExpSum-e]) * int64(save[e]); gain > best {
			best, floor = gain, e
		}
	}
	return floor
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
// The sift is a local closure rather than the generic siftDownFunc of
// the merge-plan builder on purpose: this loop runs O(n·m) times on the
// wide-span hot path and the indirect comparison call costs ~30% there
// (measured on BenchmarkConvolveWideSpan).
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
