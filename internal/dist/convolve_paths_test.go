package dist

import (
	"fmt"
	"math"
	"sort"
	"testing"
)

// naiveConvolve is the obviously-correct reference the fast paths are
// pinned against: every pair product into a map, sorted, zero products
// dropped (the documented underflow semantics).
func naiveConvolve(a, b *Dist) *Dist {
	sums := make(map[int64]float64)
	for i, av := range a.values {
		for j, bv := range b.values {
			sums[av+bv] += a.probs[i] * b.probs[j]
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

// convolveDenseScatter is the dense kernel before the underflow skip:
// every pair product scattered into the stride-g accumulator, rows in
// ascending outer order and each row's inner atoms in value order. It
// stays as the oracle the banded kernel is pinned to.
func (d *Dist) convolveDenseScatter(o *Dist, base int64, cells int, g uint64) *Dist {
	buf := make([]float64, cells)
	ooff := denseOffsets(o, g)
	for i, vi := range d.values {
		pi := d.probs[i]
		row := buf[(uint64(vi)-uint64(d.values[0]))/g:]
		for j, oj := range ooff {
			row[oj] += pi * o.probs[j]
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
// scatter-loop oracle, at g = 1 and on the compressed grid g > 1. So
// the stride threshold is purely a locality choice, and the underflow
// skip drops only products that are exactly +0.
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
	for _, stride := range []int64{1, 3, 100} {
		pairs = append(pairs,
			pair{name: fmt.Sprintf("tails-%d", stride), stride: stride, a: tail(40, stride, 1e-200), b: tail(60, stride, 5e-324)},
			pair{name: fmt.Sprintf("tails-swapped-%d", stride), stride: stride, a: tail(60, stride, 5e-324), b: tail(40, stride, 1e-200)})
		a, b, special := cells(stride)
		pairs = append(pairs, pair{name: fmt.Sprintf("cells-%d", stride), stride: stride, a: a, b: b,
			want: map[int64]bool{special[0]: true, special[1]: false, special[2]: false}})
	}
	for _, tc := range pairs {
		a, b := tc.a, tc.b
		base := a.Min() + b.Min()
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
			got := a.convolveDenseStride(b, base, int(span/g)+1, g)
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
}
