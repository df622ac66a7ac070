package dist

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// naiveConvolve is the obviously-correct reference the fast paths are
// pinned against: every pair product into a map, sorted, zero products
// dropped (the documented underflow semantics). Each product is the
// hardware multiply, rounded before it is added (the float64
// conversion stops targets with fused multiply-add from skipping that
// rounding), as in the dense kernel.
func naiveConvolve(a, b *Dist) *Dist {
	sums := make(map[int64]float64)
	for i, av := range a.values {
		for j, bv := range b.values {
			sums[av+bv] += float64(a.probs[i] * b.probs[j])
		}
	}
	values := make([]int64, 0, len(sums))
	for v := range sums {
		values = append(values, v)
	}
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
	probs := make([]float64, 0, len(values))
	kept := values[:0]
	for _, v := range values {
		if p := sums[v]; p > 0 {
			kept = append(kept, v)
			probs = append(probs, p)
		}
	}
	return fromSorted(kept, probs)
}

// subUnit builds a distribution with the given total mass directly on
// the internal representation — the shape underflow-dropped pair
// products leave behind, which New (unit-mass precondition) cannot
// express.
func subUnit(values []int64, weights []float64, mass float64) *Dist {
	var sum float64
	for _, w := range weights {
		sum += w
	}
	probs := make([]float64, len(weights))
	for i, w := range weights {
		probs[i] = w / sum * mass
	}
	return fromSorted(values, probs)
}

// TestConvolvePathAgreement is the table test pinning the three
// convolution executions — the dense kernel on the plain (g = 1) and
// the stride-compressed grid, and the wide-span k-way heap merge — to
// one another and to the naive reference, on the boundary shapes where
// path selection switches and on the degenerate inputs the reduction
// tree feeds them (neutral element, one-atom operands, sub-unit
// masses).
//
// The two dense grids must agree bitwise (the stride grid is the same
// accumulation in the same order on a compressed index); the k-way
// merge accumulates per-sum products in a different order, so it — and
// the naive reference — agree on the exact support and on
// probabilities up to reassociation rounding. Mass is conserved as the
// product of the operand masses on every path.
func TestConvolvePathAgreement(t *testing.T) {
	grid := func(n int, stride, base int64) ([]int64, []float64) {
		vs := make([]int64, n)
		ws := make([]float64, n)
		for i := range vs {
			vs[i] = base + int64(i)*int64(i)*stride
			ws[i] = float64(1+i%3) / 10
		}
		return vs, ws
	}
	mk := func(n int, stride, base int64) *Dist {
		vs, ws := grid(n, stride, base)
		return subUnit(vs, ws, 1)
	}
	cases := []struct {
		name string
		a, b *Dist
	}{
		// Neutral element and one-atom operands: the Shift shortcut.
		{"neutral-left", Degenerate(0), mk(9, 7, 3)},
		{"neutral-right", mk(9, 7, 3), Degenerate(0)},
		{"one-atom-shift", Degenerate(41), mk(12, 13, -5)},
		// Narrow span: the dense kernel at g = 1.
		{"narrow-dense", mk(20, 3, 0), mk(15, 5, 2)},
		// Span just past the stride threshold on a shared coarse grid:
		// the stride-compressed dense path.
		{"stride-grid", mk(40, 100, 0), mk(40, 100, 200)},
		// Boundary: raw span straddling minStrideCells with gcd 1
		// (stride compression unavailable, g = 1 must cope).
		{"boundary-gcd1", mk(64, 97, 0), subUnit([]int64{0, 1, 1 << 14}, []float64{1, 1, 1}, 1)},
		// Wide span, no common stride: the k-way heap merge.
		{"wide-kway", mk(24, 1_000_003, 0), mk(24, 999_983, 17)},
		// Sub-unit masses (the shape underflow leaves): mass must come
		// out as the product, not be renormalized away.
		{"sub-unit-narrow", subUnit([]int64{0, 2, 5}, []float64{1, 2, 1}, 0.25), subUnit([]int64{1, 3}, []float64{1, 1}, 0.5)},
		{"sub-unit-wide", subUnit([]int64{0, 1_000_003}, []float64{1, 3}, 0.125), subUnit([]int64{0, 2_000_005}, []float64{2, 1}, 0.75)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := naiveConvolve(tc.a, tc.b)
			got := tc.a.Convolve(tc.b)
			if got.Len() != want.Len() {
				t.Fatalf("support size %d, want %d", got.Len(), want.Len())
			}
			wp := want.Points()
			for i, p := range got.Points() {
				if p.Value != wp[i].Value {
					t.Fatalf("support differs at %d: %d vs %d", i, p.Value, wp[i].Value)
				}
				if diff := math.Abs(p.Prob - wp[i].Prob); diff > 1e-12*wp[i].Prob {
					t.Fatalf("probability at value %d: %g, want %g", p.Value, p.Prob, wp[i].Prob)
				}
			}
			if wantMass := tc.a.Mass() * tc.b.Mass(); math.Abs(got.Mass()-wantMass) > 1e-12 {
				t.Fatalf("mass %g, want the product of operand masses %g", got.Mass(), wantMass)
			}
			if got.Max() != tc.a.Max()+tc.b.Max() {
				t.Fatalf("max %d, want %d", got.Max(), tc.a.Max()+tc.b.Max())
			}

			// Force the k-way merge on the same operands (legal for any
			// multi-atom pair): exact same support, rounding-level probs.
			if tc.a.Len() > 1 && tc.b.Len() > 1 {
				kway := tc.a.convolveKWay(tc.b)
				if kway.Len() != want.Len() {
					t.Fatalf("k-way support size %d, want %d", kway.Len(), want.Len())
				}
				for i, p := range kway.Points() {
					if p.Value != wp[i].Value {
						t.Fatalf("k-way support differs at %d: %d vs %d", i, p.Value, wp[i].Value)
					}
					if diff := math.Abs(p.Prob - wp[i].Prob); diff > 1e-12*wp[i].Prob {
						t.Fatalf("k-way probability at value %d: %g, want %g", p.Value, p.Prob, wp[i].Prob)
					}
				}
			}
		})
	}
}

// convolveDenseScatter is the dense kernel before the product classes:
// every pair product taken from the hardware multiply and scattered
// into the stride-g accumulator, rows in ascending outer order and
// each row's inner atoms in value order. It stays as the oracle the
// banded kernel is pinned to.
func (d *Dist) convolveDenseScatter(o *Dist, base int64, cells int, g uint64) *Dist {
	buf := make([]float64, cells)
	for i, vi := range d.values {
		pi := d.probs[i]
		row := buf[(uint64(vi)-uint64(d.values[0]))/g:]
		for j, vj := range o.values {
			row[(uint64(vj)-uint64(o.values[0]))/g] += float64(pi * o.probs[j])
		}
	}
	var values []int64
	var probs []float64
	for k, p := range buf {
		if p > 0 {
			values = append(values, int64(uint64(base)+uint64(k)*g))
			probs = append(probs, p)
		}
	}
	return fromSorted(values, probs)
}

// TestConvolveDenseStrideBitIdentical pins the dense kernel bit for
// bit — same values, same float64 bit patterns — to naiveConvolve,
// which sums each cell in the same ascending outer order, and to the
// scatter-loop oracle, at g = 1 and on the compressed grid g > 1. Both
// oracles take every product from the hardware multiply. So the stride
// threshold is purely a locality choice, the underflow skip drops only
// products that are exactly +0, and the software products are the
// hardware ones.
//
// The class corpus draws each probability's biased exponent from two
// lists chosen so that pairs land on both sides of both class
// boundaries (exponent sums 969/970 and 1023/1024), a subnormal outer
// atom meets normal inner bands and the reverse, rows need all three
// classes, and cells on the shared grid sum hardware and software
// products together.
//
// The underflow corpus has tails reaching 1e-200 down to 5e-324 and
// three hand-placed cells, each reached by exactly one pair:
//   - a pair whose biased exponents sum to exactly minKeptExpSum and
//     whose product is the smallest subnormal: the boundary band must
//     be kept, so the test fails if the band test is off by one;
//   - a pair in a kept band whose product is exactly 2^-1075, the tie
//     that rounds to +0;
//   - a pair in a skipped band (1e-200 × 5e-324).
//
// The last two cells are reached only by products that round to 0 and
// must be absent from the result.
//
// The segment corpus (segmentCases) is above segmentMinPairs pairs,
// and each of its cases runs twice, with the AVX2 axpy and with the Go
// loop, and must plan a segment both times.
func TestConvolveDenseStrideBitIdentical(t *testing.T) {
	mkGrid := func(n int, stride int64) *Dist {
		vs := make([]int64, n)
		ws := make([]float64, n)
		for i := range vs {
			vs[i] = int64(i) * int64(i+1) / 2 * stride
			ws[i] = 1 / float64(i+2)
		}
		return subUnit(vs, ws, 1)
	}
	// tail: n atoms on value stride, masses decaying geometrically from
	// 1/4 down to floor (the last atom is exactly floor).
	tail := func(n int, stride int64, floor float64) *Dist {
		vs := make([]int64, n)
		ps := make([]float64, n)
		r := math.Pow(floor/0.25, 1/float64(n-1))
		for i := range vs {
			vs[i] = int64(i*i+i) * stride
			ps[i] = 0.25 * math.Pow(r, float64(i))
		}
		ps[n-1] = floor
		return fromSorted(vs, ps)
	}
	// The corpus checks use the literal 970 rather than minKeptExpSum,
	// so a wrong constant fails the kernel comparisons below.
	boundary := math.Nextafter(math.Ldexp(1, -537), 0) // biased exponent 485
	if biasedExp(boundary)+biasedExp(boundary) != 970 || boundary*boundary != math.SmallestNonzeroFloat64 {
		t.Fatal("corpus bug: the boundary pair is not at the band boundary")
	}
	tie := [2]float64{math.Ldexp(1, -537), math.Ldexp(1, -538)} // product 2^-1075
	if tie[0]*tie[1] != 0 || biasedExp(tie[0])+biasedExp(tie[1]) < 970 {
		t.Fatal("corpus bug: the tie pair is not in a kept band")
	}
	skipped := [2]float64{1e-200, 5e-324}
	if biasedExp(skipped[0])+biasedExp(skipped[1]) >= 970 {
		t.Fatal("corpus bug: the skipped pair is in a kept band")
	}
	// cells: the hand-placed pairs on a grid of stride s; only
	// a[k]+b[k] for k >= 3 lands on its sum, so each special cell has
	// exactly one contributing pair.
	cells := func(s int64) (*Dist, *Dist, []int64) {
		a := fromSorted([]int64{0, 3 * s, 7 * s, 1_000 * s, 2_000 * s, 4_000 * s},
			[]float64{0.5, 0.25, 0.125, boundary, tie[0], skipped[0]})
		b := fromSorted([]int64{0, 5 * s, 10_000 * s, 20_000 * s, 40_000 * s},
			[]float64{0.5, 0.25, boundary, tie[1], skipped[1]})
		return a, b, []int64{11_000 * s, 22_000 * s, 44_000 * s}
	}

	// classDist: n atoms at i·stride whose probabilities take their
	// biased exponents from exps in turn, with pseudo-random fractions
	// (exponent 0 gives a subnormal). Every exponent is at most 1016,
	// so the mass stays below 1.
	classDist := func(n int, stride int64, exps []uint64, seed int64) *Dist {
		rng := rand.New(rand.NewSource(seed))
		vs := make([]int64, n)
		ps := make([]float64, n)
		for i := range vs {
			vs[i] = int64(i) * stride
			ps[i] = math.Float64frombits(exps[i%len(exps)]<<52 | rng.Uint64()>>12 | 1)
		}
		return fromSorted(vs, ps)
	}
	outerExps := []uint64{1016, 512, 0, 1010, 485, 9, 700, 484, 511, 486, 8, 0}
	innerExps := []uint64{1015, 511, 486, 8, 1016, 485, 0, 300, 484, 512, 14, 1}
	// The corpus checks, like the class test, use the literal
	// boundaries 970 and 1024.
	{
		a, b := classDist(48, 1, outerExps, 1), classDist(48, 1, innerExps, 2)
		sums := map[int]bool{}
		var subOuter, subInner bool
		rowClasses := map[int]int{} // outer index -> bitmask of classes
		cellClasses := map[int64]int{}
		for i, p := range a.probs {
			for j, q := range b.probs {
				ep, eq := biasedExp(p), biasedExp(q)
				sums[ep+eq] = true
				c := 0 // skip
				switch {
				case ep+eq >= 1024:
					c = 1
				case ep+eq >= 970:
					c = 2
					subOuter = subOuter || ep == 0 && float64(p*q) != 0
					subInner = subInner || eq == 0 && float64(p*q) != 0
				}
				rowClasses[i] |= 1 << c
				if c > 0 {
					cellClasses[a.values[i]+b.values[j]] |= 1 << c
				}
			}
		}
		threeClassRows, mixedCells := 0, 0
		for _, m := range rowClasses {
			if m == 7 {
				threeClassRows++
			}
		}
		for _, m := range cellClasses {
			if m == 6 {
				mixedCells++
			}
		}
		if !sums[969] || !sums[970] || !sums[1023] || !sums[1024] || !subOuter || !subInner ||
			threeClassRows == 0 || mixedCells == 0 {
			t.Fatalf("corpus bug: class corpus misses a case: sums %v, subnormal outer %v inner %v, %d three-class rows, %d mixed cells",
				[]bool{sums[969], sums[970], sums[1023], sums[1024]}, subOuter, subInner, threeClassRows, mixedCells)
		}
	}

	type pair struct {
		name   string
		stride int64
		a, b   *Dist
		want   map[int64]bool // special cell value -> must be present
	}
	var pairs []pair
	for _, stride := range []int64{2, 100, 4096} {
		pairs = append(pairs, pair{name: fmt.Sprintf("grid-%d", stride), stride: stride, a: mkGrid(30, stride), b: mkGrid(25, stride)})
	}
	for _, stride := range []int64{1, 7} {
		a, b := classDist(48, stride, outerExps, 1), classDist(48, stride, innerExps, 2)
		pairs = append(pairs,
			pair{name: fmt.Sprintf("classes-%d", stride), stride: stride, a: a, b: b},
			pair{name: fmt.Sprintf("classes-swapped-%d", stride), stride: stride, a: b, b: a})
	}
	for _, stride := range []int64{1, 3, 100} {
		pairs = append(pairs,
			pair{name: fmt.Sprintf("tails-%d", stride), stride: stride, a: tail(40, stride, 1e-200), b: tail(60, stride, 5e-324)},
			pair{name: fmt.Sprintf("tails-swapped-%d", stride), stride: stride, a: tail(60, stride, 5e-324), b: tail(40, stride, 1e-200)})
		a, b, special := cells(stride)
		pairs = append(pairs, pair{name: fmt.Sprintf("cells-%d", stride), stride: stride, a: a, b: b,
			want: map[int64]bool{special[0]: true, special[1]: false, special[2]: false}})
	}
	// One scratch serves every call, as in a reduction.
	s := new(scratch)
	for _, tc := range pairs {
		a, b := tc.a, tc.b
		base := a.values[0] + b.values[0]
		span := uint64(a.Max() + b.Max() - base)
		want := naiveConvolve(a, b)
		gs := []uint64{1}
		if g := strideGCD(a, b); g > 1 {
			gs = append(gs, g)
		}
		if tc.stride > 1 && len(gs) < 2 {
			t.Fatalf("%s: corpus bug: no common stride", tc.name)
		}
		for _, g := range gs {
			label := fmt.Sprintf("%s g=%d", tc.name, g)
			got := s.convolveDenseStride(a, b, densePlan{base, int(span/g) + 1, g}, coarsening{})
			requireSameDist(t, label+" vs naive", got, want)
			requireSameDist(t, label+" vs scatter", got, a.convolveDenseScatter(b, base, int(span/g)+1, g))
			for v, present := range tc.want {
				k := sort.Search(got.Len(), func(i int) bool { return got.values[i] >= v })
				if has := k < got.Len() && got.values[k] == v; has != present {
					t.Fatalf("%s: cell %d present = %v, want %v", label, v, has, present)
				}
			}
		}
	}

	for _, tc := range segmentCases() {
		a, b := tc.a, tc.b
		base := a.values[0] + b.values[0]
		g := strideGCD(a, b)
		if tc.stride > 1 && g != uint64(tc.stride) {
			t.Fatalf("%s: corpus bug: common stride %d, want %d", tc.name, g, tc.stride)
		}
		cells := int(uint64(a.Max()+b.Max()-base)/g) + 1
		want := naiveConvolve(a, b)
		scatter := a.convolveDenseScatter(b, base, cells, g)
		t.Run(tc.name, func(t *testing.T) {
			runAxpyModes(t, func(t *testing.T) {
				label := fmt.Sprintf("g=%d", g)
				in := new(scratch).bandInner(a, b, g)
				if in.segExp == 0 {
					t.Fatalf("%s: no segment planned", label)
				}
				checkSegmentCorpus(t, label, tc, in)
				got := s.convolveDenseStride(a, b, densePlan{base, cells, g}, coarsening{})
				requireSameDist(t, label+" vs naive", got, want)
				requireSameDist(t, label+" vs scatter", got, scatter)
			})
		})
	}
}

// segmentCase is a dense convolution above segmentMinPairs pairs, with
// the shapes around the segment it must contain.
type segmentCase struct {
	name   string
	stride int64
	a, b   *Dist
	// boundary: rows at ep = 1023−E and 1024−E, atoms after the prefix
	// inside the segment's cell range, and rows that add the segment,
	// scatter and call addTinyProducts.
	boundary bool
	// valueOrder: the segment takes every atom and no product can be
	// subnormal, so the atoms stay in value order.
	valueOrder bool
}

// segmentCases builds the segment corpus. Each operand has atoms i·stride
// whose probabilities take their biased exponents from a list in turn,
// with pseudo-random fractions; the lists keep every mass below 1.
//
//   - "tail": the inner operand is dense with exponents 1012 and 1013,
//     every tenth atom dust (990, 960, 500, 5, or a subnormal), so the
//     floor is E = 1012. The outer rows run from subnormals through
//     ep = 11 and 12 to 1017: deep-tail rows add the segment, scatter
//     the 990 dust in hardware and the 960 dust in software, and the
//     1017 rows scatter the 500 dust and multiply the subnormal dust in
//     software. At stride 1 the grid is g = 1, at stride 7 g = 7.
//   - "normal": every product is normal and the floor takes every
//     inner atom, so the value-order layout carries the segment.
//   - "normal-banded": every product is normal, but the inner operand
//     is a dense block plus sparse atoms of exponent 950 far above it,
//     so the floor leaves them out and the bands are built for the
//     segment alone.
func segmentCases() []segmentCase {
	mk := func(n int, stride int64, exps func(i int) uint64, seed int64) *Dist {
		rng := rand.New(rand.NewSource(seed))
		vs := make([]int64, n)
		ps := make([]float64, n)
		for i := range vs {
			vs[i] = int64(i) * stride
			ps[i] = math.Float64frombits(exps(i)<<52 | rng.Uint64()>>12 | 1)
		}
		return fromSorted(vs, ps)
	}
	cycle := func(list ...uint64) func(int) uint64 {
		return func(i int) uint64 { return list[i%len(list)] }
	}
	dust := []uint64{990, 960, 500, 5, 0}
	tailInner := func(i int) uint64 {
		if i%10 == 3 {
			return dust[i/10%len(dust)]
		}
		return 1012 + uint64(i%2)
	}
	tailOuter := cycle(11, 12, 13, 20, 40, 100, 500, 900, 985, 1000, 1010, 1015, 0, 1017, 30, 700)
	normalOuter := cycle(100, 300, 600, 900, 1000, 1010, 1015)
	var cases []segmentCase
	for _, stride := range []int64{1, 7} {
		cases = append(cases, segmentCase{name: fmt.Sprintf("tail-%d", stride), stride: stride,
			a: mk(128, stride, tailOuter, 3), b: mk(200, stride, tailInner, 4), boundary: true})
	}
	cases = append(cases, segmentCase{name: "normal-3", stride: 3,
		a: mk(128, 3, normalOuter, 5), b: mk(200, 3, cycle(1010, 1011, 1012, 1013, 1014), 6), valueOrder: true})
	// The block holds atoms 0..149; atoms 150..169 have exponent 950
	// and sit 500 cells apart above it.
	block := mk(170, 1, func(i int) uint64 { return 1012 + uint64(i%2) }, 7)
	for i := 150; i < 170; i++ {
		block.values[i] = 150 + 500*int64(i-150)
		block.probs[i] = math.Float64frombits(950<<52 | math.Float64bits(block.probs[i])&(1<<52-1))
	}
	block = fromSorted(block.values, block.probs)
	cases = append(cases, segmentCase{name: "normal-banded-1", stride: 1, a: mk(128, 1, normalOuter, 8), b: block})
	return cases
}

// checkSegmentCorpus fails unless the planned layout in shows what the
// case is there for.
func checkSegmentCorpus(t *testing.T, label string, tc segmentCase, in innerBands) {
	t.Helper()
	a, b := tc.a, tc.b
	if mass := a.Mass() * b.Mass(); len(a.values)*len(b.values) < segmentMinPairs || mass > 1 {
		t.Fatalf("%s: corpus bug: %d×%d pairs, mass %g", label, len(a.values), len(b.values), mass)
	}
	if tc.valueOrder != (in.ends == nil) {
		t.Fatalf("%s: corpus bug: value-order layout %v, want %v", label, in.ends == nil, tc.valueOrder)
	}
	if !tc.boundary {
		return
	}
	e := in.segExp
	// The literals 1023 and 1024 rather than minHardwareExpSum, so a
	// wrong constant fails too: a row below 1024−E would have subnormal
	// products in the segment.
	if in.segmentRow(1023-e) || !in.segmentRow(1024-e) {
		t.Fatalf("%s: rows at ep = %d and %d take the segment: %v, %v; want false, true",
			label, 1023-e, 1024-e, in.segmentRow(1023-e), in.segmentRow(1024-e))
	}
	var below, at, mixed, inside bool
	for _, p := range a.probs {
		ep := biasedExp(p)
		below = below || ep == 1023-e
		at = at || ep == 1024-e
		if in.segmentRow(ep) && ep < in.hwAll {
			hw, kept := in.split(ep)
			mixed = mixed || hw > in.segAtoms && kept > hw
		}
	}
	for _, oj := range in.off[in.segAtoms:] {
		inside = inside || oj >= in.segLo && oj < in.segLo+len(in.seg)
	}
	if !below || !at || !mixed || !inside {
		t.Fatalf("%s: corpus bug: E = %d, rows at ep = 1023−E %v and 1024−E %v, rows mixing all three %v, atoms after the prefix inside the segment %v",
			label, e, below, at, mixed, inside)
	}
}

// tinyProduct is addTinyProducts on a single cell that starts at +0,
// so the cell ends up holding the product itself.
func tinyProduct(p, q float64) float64 {
	row := []float64{0}
	addTinyProducts(row, []int{0}, []float64{q}, p)
	return row[0]
}

// fromParts builds the positive float64 m·2^(e−1075) from a 53-bit
// integer significand and an effective biased exponent e >= 1 (the
// inverse of significand; m < 2^52 with e = 1 is a subnormal).
func fromParts(m uint64, e int) float64 {
	if m < 1<<52 {
		return math.Float64frombits(m)
	}
	return math.Float64frombits(uint64(e)<<52 | m&(1<<52-1))
}

// tinyProductCases are the software products the table test and the
// fuzz seeds pin: each pair has biased exponents summing to 970..1023,
// and want, when nonzero, is the exact expected result.
var tinyProductCases = []struct {
	name string
	p, q float64
	want float64
}{
	// q a power of two and p's dropped bits exactly 10…0: ties that
	// round down (even) and up (to even).
	{"tie-down-1bit", fromParts(1<<52|1, 600), math.Ldexp(1, -600), 0},
	{"tie-up-1bit", fromParts(1<<52|3, 600), math.Ldexp(1, -600), 0},
	{"tie-down-8bits", fromParts(1<<52|0x80, 600), math.Ldexp(1, -607), 0},
	{"tie-up-8bits", fromParts(1<<52|0x180, 600), math.Ldexp(1, -607), 0},
	// (2^52+4)(2^52+1) = 2^104 + 5·2^52 + 4 with s = 53: the rounding
	// bit is set, the next two bits are clear and only bit 2 breaks the
	// tie, so the result rounds up from the even 2^51+2 to 2^51+3.
	{"tie-broken-by-sticky", fromParts(1<<52|4, 512), fromParts(1<<52|1, 511), fromParts(1<<51+3, 1)},
	{"smallest-subnormal", math.Ldexp(1, -537), math.Ldexp(1, -537), math.SmallestNonzeroFloat64},
	{"round-up-to-smallest", fromParts(1<<52|1, 486), math.Ldexp(1, -538), math.SmallestNonzeroFloat64},
	// (1 − 2^−53)·2^−1022 is 2^−1022 − 2^−1075: a tie, rounded up to
	// the even 2^−1022. (1 − 2^−52)·(2^−1022 + 2^−1074) is just below
	// 2^−1022 and not a tie.
	{"min-normal-by-tie", 1 - math.Ldexp(1, -53), math.Ldexp(1, -1022), math.Ldexp(1, -1022)},
	{"min-normal-round-up", 1 - math.Ldexp(1, -52), math.Nextafter(math.Ldexp(1, -1022), 1), math.Ldexp(1, -1022)},
	{"normal-below-2^-1021", 0.9, 1.75 * math.Ldexp(1, -1022), 0},
	{"largest-below-2^-1021", math.Nextafter(1, 0), math.Nextafter(math.Ldexp(1, -1021), 0), 0},
	{"subnormal-times-normal", 12345 * math.SmallestNonzeroFloat64, 0.7, 0},
	{"subnormal-times-one", 3e-310, 1, 3e-310},
	{"normal-times-subnormal", 1e-10, 4.9e-309, 0},
	{"S=970-nonzero", 1.9 * math.Ldexp(1, -538), 1.9 * math.Ldexp(1, -538), math.SmallestNonzeroFloat64},
	{"S=970-zero", 1.1 * math.Ldexp(1, -538), 1.1 * math.Ldexp(1, -538), 0},
	{"S=970-subnormal", 7 * math.SmallestNonzeroFloat64, 1.5 * math.Ldexp(1, -53), 0},
	{"S=1023", 0.6, 1.3 * math.Ldexp(1, -1022), 0},
}

// TestTinyProduct pins the software product bitwise to the hardware
// multiply on ties resolved both ways, a tie broken only by the sticky
// bit, results of exactly 2^−1074 and 2^−1022 and in [2^−1022,
// 2^−1021), subnormal operands, and both ends of the class.
func TestTinyProduct(t *testing.T) {
	for _, tc := range tinyProductCases {
		ep, eq := biasedExp(tc.p), biasedExp(tc.q)
		if s := ep + eq; s < 970 || s > 1023 || tc.p > 1 || tc.q > 1 {
			t.Fatalf("%s: corpus bug: exponent sum %d outside 970..1023 or a factor above 1", tc.name, s)
		}
		hw := float64(tc.p * tc.q)
		if tc.want != 0 && hw != tc.want {
			t.Fatalf("%s: corpus bug: hardware product %g, want %g", tc.name, hw, tc.want)
		}
		if got := tinyProduct(tc.p, tc.q); math.Float64bits(got) != math.Float64bits(hw) {
			t.Errorf("%s: software product %#x, hardware %#x", tc.name, math.Float64bits(got), math.Float64bits(hw))
		}
	}
}

// tinyClassPair maps two arbitrary float64s onto positive doubles at
// most 1 whose biased exponents sum to 970..1023, keeping their
// fractions; a pair already there maps onto itself.
func tinyClassPair(p, q float64) (float64, float64) {
	a, b := math.Float64bits(math.Abs(p)), math.Float64bits(math.Abs(q))
	ep, eq := a>>52, b>>52
	if s := ep + eq; ep > 1023 || eq > 1023 || s < 970 || s > 1023 {
		s = 970 + s%54
		ep %= s + 1
		eq = s - ep
	}
	mk := func(frac, e uint64) float64 {
		if e == 1023 {
			frac = 0 // 1.0: keep the factor at most 1
		}
		return math.Float64frombits(e<<52 | frac)
	}
	return mk(a&(1<<52-1), ep), mk(b&(1<<52-1), eq)
}

// FuzzTinyProduct compares the software product with the hardware one,
// bit for bit, on pairs drawn from the whole software class.
func FuzzTinyProduct(f *testing.F) {
	for _, tc := range tinyProductCases {
		f.Add(tc.p, tc.q)
	}
	f.Fuzz(func(t *testing.T, p, q float64) {
		p, q = tinyClassPair(p, q)
		if p == 0 || q == 0 {
			return
		}
		hw := float64(p * q)
		if got := tinyProduct(p, q); math.Float64bits(got) != math.Float64bits(hw) {
			t.Fatalf("%x × %x: software product %#x, hardware %#x",
				math.Float64bits(p), math.Float64bits(q), math.Float64bits(got), math.Float64bits(hw))
		}
	})
}

// TestProductClassSplit checks, for every pair of biased exponents in
// [0, 1023]², the class the dense kernel gives it — the hwAll shortcut
// and split's two prefixes, as convolveDenseStride applies them —
// against the class boundaries written out: products of two normal
// factors with exponents summing to at least 1024 are normal and use
// the hardware multiply, pairs summing to 970..1023 use the software
// product, and lower sums round to +0 and are skipped. The inner
// operands hold one atom per exponent from low to 1023, and the outer
// operands' smallest exponent minP decides whether bands are built at
// all: they must be whenever minP + low < 1024.
func TestProductClassSplit(t *testing.T) {
	const (
		skip = iota
		software
		hardware
	)
	want := func(ep, eq int) int {
		switch s := ep + eq; {
		case s <= 969:
			return skip
		case s >= 1024 && ep >= 1 && eq >= 1:
			return hardware
		default:
			return software
		}
	}
	// withExp returns a float64 with biased exponent e and a nonzero
	// pseudo-random fraction (1.0 for e = 1023, so it stays at most 1).
	withExp := func(e int) float64 {
		frac := uint64(e)*0x9E3779B97F4A7C15>>12 | 1
		if e == 1023 {
			frac = 0
		}
		return math.Float64frombits(uint64(e)<<52 | frac)
	}
	for _, c := range []struct{ low, minP int }{{0, 0}, {1, 0}, {600, 0}, {0, 1000}, {600, 400}, {600, 424}} {
		var vs []int64
		var ps []float64
		for e := c.low; e <= 1023; e++ {
			vs = append(vs, int64(e))
			ps = append(ps, withExp(e))
		}
		outer := fromSorted([]int64{0, 1}, []float64{0.5, withExp(c.minP)})
		in := new(scratch).bandInner(outer, &Dist{values: vs, probs: ps}, 1)
		for ep := c.minP; ep <= 1023; ep++ {
			hw, kept := len(in.off), len(in.off)
			if ep < in.hwAll {
				hw, kept = in.split(ep)
			}
			for j, q := range in.probs {
				got := skip
				if j < hw {
					got = hardware
				} else if j < kept {
					got = software
				}
				if eq := biasedExp(q); got != want(ep, eq) {
					t.Fatalf("inner exponents from %d, outer from %d: pair (%d, %d) in class %d, want %d",
						c.low, c.minP, ep, eq, got, want(ep, eq))
				}
			}
		}
	}
}

// TestSegmentPlan pins when the dense kernel plans a segment: never
// below segmentMinPairs pairs, never for an inner operand the size of
// one cache set's distribution (the axpy call would cost more than the
// few atoms it saves), and only when the inner atoms are dense enough
// on the grid for the cost per cell of the axpy in use: one atom every
// third cell pays with AVX2 but not with the Go loop.
func TestSegmentPlan(t *testing.T) {
	grid := func(n int, gap int64, exp uint64) *Dist {
		vs := make([]int64, n)
		ps := make([]float64, n)
		for i := range vs {
			vs[i] = int64(i) * gap
			ps[i] = math.Float64frombits(exp<<52 | uint64(i)*0x9E3779B97F4A7C15>>12)
		}
		return fromSorted(vs, ps)
	}
	cases := []struct {
		name         string
		a, b         *Dist
		avx2, goLoop bool // whether a segment is planned
	}{
		{"below-gate", grid(127, 1, 1000), grid(128, 1, 1012), false, false},
		{"at-gate", grid(128, 1, 1000), grid(128, 1, 1012), true, true},
		{"per-set-inner", grid(10_000, 1, 1000), grid(5, 8, 1012), false, false},
		{"every-3rd-cell", grid(128, 1, 1000), grid(200, 3, 1012), true, false},
		{"every-10th-cell", grid(128, 1, 1000), grid(200, 10, 1012), false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runAxpyModes(t, func(t *testing.T) {
				want := tc.goLoop
				if useAVX2 {
					want = tc.avx2
				}
				if in := new(scratch).bandInner(tc.a, tc.b, 1); (in.segExp > 0) != want {
					t.Fatalf("segment planned %v (E = %d), want %v", in.segExp > 0, in.segExp, want)
				}
			})
		})
	}
}
