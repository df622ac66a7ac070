package dist

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func mustNew(t *testing.T, pts []Point) *Dist {
	t.Helper()
	d, err := New(pts)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name string
		pts  []Point
		want string // substring of the expected error, "" = success
	}{
		{"empty", nil, "no points"},
		{"negative", []Point{{0, -0.1}, {1, 1.1}}, "negative"},
		{"nan", []Point{{0, math.NaN()}, {1, 1}}, "NaN"},
		{"inf", []Point{{0, math.Inf(1)}, {1, 0.5}}, "+Inf"},
		{"zero mass", []Point{{0, 0}, {1, 0}}, "zero total mass"},
		{"mass too low", []Point{{0, 0.5}, {1, 0.4}}, "deviates"},
		{"mass too high", []Point{{0, 0.6}, {1, 0.6}}, "deviates"},
		{"exact", []Point{{0, 0.25}, {1, 0.75}}, ""},
		{"within tolerance", []Point{{0, 0.5}, {1, 0.5 + 1e-10}}, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d, err := New(c.pts)
			if c.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if m := d.Mass(); math.Abs(m-1) > 1e-12 {
					t.Errorf("mass %g after normalization", m)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %v, want substring %q", err, c.want)
			}
		})
	}
}

func TestNewMergesAndDrops(t *testing.T) {
	// Duplicate values merge; zero-probability atoms disappear (so Max
	// reflects only reachable values — the pfail=0 invariant upstream).
	d := mustNew(t, []Point{{5, 0.25}, {0, 0.5}, {5, 0.25}, {700, 0}})
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2", d.Len())
	}
	if d.Max() != 5 || d.values[0] != 0 {
		t.Errorf("support [%d,%d], want [0,5]", d.values[0], d.Max())
	}
	pts := d.Points()
	if pts[0] != (Point{0, 0.5}) || pts[1] != (Point{5, 0.5}) {
		t.Errorf("points = %v", pts)
	}
}

func TestDegenerate(t *testing.T) {
	d := Degenerate(42)
	if d.Len() != 1 || d.Max() != 42 || d.values[0] != 42 || d.Mass() != 1 {
		t.Fatalf("bad degenerate: %+v", d)
	}
	if d.CCDF(41) != 1 || d.CCDF(42) != 0 {
		t.Error("degenerate CCDF wrong")
	}
	if d.QuantileExceedance(0.5) != 42 {
		t.Error("degenerate quantiles wrong")
	}
	if d.Mean() != 42 {
		t.Error("degenerate mean wrong")
	}
}

// TestGoldenCCDFAndQuantiles checks CCDF and QuantileExceedance against
// a hand-computed table for a four-atom distribution.
func TestGoldenCCDFAndQuantiles(t *testing.T) {
	d := mustNew(t, []Point{{0, 0.9}, {10, 0.09}, {20, 0.009}, {30, 0.001}})
	// CCDF: P(X > t).
	ccdf := []struct {
		t    int64
		want float64
	}{
		{-1, 1}, {0, 0.1}, {5, 0.1}, {10, 0.01}, {19, 0.01},
		{20, 0.001}, {29, 0.001}, {30, 0}, {1000, 0},
	}
	for _, c := range ccdf {
		if got := d.CCDF(c.t); math.Abs(got-c.want) > 1e-15 {
			t.Errorf("CCDF(%d) = %g, want %g", c.t, got, c.want)
		}
	}
	// QuantileExceedance: smallest support value with CCDF <= p.
	qe := []struct {
		p    float64
		want int64
	}{
		{1, 0}, {0.5, 0}, {0.1, 0}, {0.05, 10}, {0.01, 10},
		{0.005, 20}, {0.001, 20}, {1e-9, 30}, {0, 30}, {-1, 30},
	}
	for _, c := range qe {
		if got := d.QuantileExceedance(c.p); got != c.want {
			t.Errorf("QuantileExceedance(%g) = %d, want %d", c.p, got, c.want)
		}
	}
}

// bruteConvolve enumerates all value pairs into a map — the obviously
// correct O(n·m) reference the optimized Convolve is checked against.
func bruteConvolve(a, b *Dist) map[int64]float64 {
	out := map[int64]float64{}
	for _, pa := range a.Points() {
		for _, pb := range b.Points() {
			out[pa.Value+pb.Value] += pa.Prob * pb.Prob
		}
	}
	return out
}

// TestGoldenConvolve cross-checks Convolve against brute-force
// enumeration on two small hand-built distributions, including the
// hand-computed headline values.
func TestGoldenConvolve(t *testing.T) {
	a := mustNew(t, []Point{{0, 0.5}, {10, 0.3}, {20, 0.2}})
	b := mustNew(t, []Point{{0, 0.7}, {10, 0.2}, {15, 0.1}})
	c := a.Convolve(b)
	// Hand-computed: value 10 arises as 0+10 and 10+0.
	if got := c.CCDF(-1); math.Abs(got-1) > 1e-15 {
		t.Errorf("total mass %g", got)
	}
	want := map[int64]float64{
		0:  0.5 * 0.7,
		10: 0.5*0.2 + 0.3*0.7,
		15: 0.5 * 0.1,
		20: 0.3*0.2 + 0.2*0.7,
		25: 0.3 * 0.1,
		30: 0.2 * 0.2,
		35: 0.2 * 0.1,
	}
	if c.Len() != len(want) {
		t.Fatalf("support size %d, want %d", c.Len(), len(want))
	}
	for _, p := range c.Points() {
		if math.Abs(p.Prob-want[p.Value]) > 1e-15 {
			t.Errorf("P(X=%d) = %g, want %g", p.Value, p.Prob, want[p.Value])
		}
	}
	// And against the brute-force reference.
	brute := bruteConvolve(a, b)
	for _, p := range c.Points() {
		if math.Abs(p.Prob-brute[p.Value]) > 1e-15 {
			t.Errorf("P(X=%d) = %g, brute force %g", p.Value, p.Prob, brute[p.Value])
		}
	}
}

func TestConvolveDegenerateIsShift(t *testing.T) {
	a := mustNew(t, []Point{{3, 0.4}, {8, 0.6}})
	c := a.Convolve(Degenerate(100))
	if c.Len() != 2 || c.values[0] != 103 || c.Max() != 108 {
		t.Fatalf("degenerate convolve: %v", c.Points())
	}
	c2 := Degenerate(100).Convolve(a)
	if c2.values[0] != 103 || c2.Max() != 108 {
		t.Fatalf("degenerate convolve (flipped): %v", c2.Points())
	}
}

// TestConvolveWidePath forces the wide-span k-way-merge fallback
// (values too spread out for the dense accumulator) and checks it
// against brute force.
func TestConvolveWidePath(t *testing.T) {
	a := mustNew(t, []Point{{0, 0.5}, {1 << 40, 0.5}})
	b := mustNew(t, []Point{{7, 0.25}, {1 << 41, 0.75}})
	c := a.Convolve(b)
	brute := bruteConvolve(a, b)
	if c.Len() != len(brute) {
		t.Fatalf("support size %d, want %d", c.Len(), len(brute))
	}
	for _, p := range c.Points() {
		if math.Abs(p.Prob-brute[p.Value]) > 1e-15 {
			t.Errorf("P(X=%d) = %g, brute force %g", p.Value, p.Prob, brute[p.Value])
		}
	}
}

// TestConvolveWidePathRandom drives the k-way merge with larger random
// wide-span operands — including colliding sums, asymmetric operand
// sizes and negative values — and checks support, mass and every
// probability against brute force.
func TestConvolveWidePathRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 60; iter++ {
		na, nb := 1+rng.Intn(40), 1+rng.Intn(40)
		mk := func(n int) *Dist {
			pts := make([]Point, n)
			for i := range pts {
				// A wide base offset forces the k-way path; a small
				// additive grid makes distinct atoms collide on sums.
				v := int64(rng.Intn(50))*(1<<35) + int64(rng.Intn(8)) - (1 << 38)
				pts[i] = Point{Value: v, Prob: 1}
			}
			for i := range pts {
				pts[i].Prob = 1 / float64(n)
			}
			d, err := New(pts)
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
		a, b := mk(na), mk(nb)
		c := a.Convolve(b)
		brute := bruteConvolve(a, b)
		if c.Len() != len(brute) {
			t.Fatalf("support size %d, want %d", c.Len(), len(brute))
		}
		var mass float64
		for _, p := range c.Points() {
			if math.Abs(p.Prob-brute[p.Value]) > 1e-12 {
				t.Fatalf("P(X=%d) = %g, brute force %g", p.Value, p.Prob, brute[p.Value])
			}
			mass += p.Prob
		}
		if math.Abs(mass-1) > 1e-9 {
			t.Fatalf("mass drifted to %g", mass)
		}
	}
}

// TestConvolveFullDomainSpan: operands whose sum range covers the
// entire int64 domain (span - 1 == 2^64 - 1) must take the wide path,
// not wrap the span to 0 and panic in the dense accumulator.
func TestConvolveFullDomainSpan(t *testing.T) {
	a := mustNew(t, []Point{{math.MinInt64, 0.5}, {0, 0.5}})
	b := mustNew(t, []Point{{0, 0.25}, {math.MaxInt64, 0.75}})
	c := a.Convolve(b)
	brute := bruteConvolve(a, b)
	if c.Len() != len(brute) {
		t.Fatalf("support size %d, want %d", c.Len(), len(brute))
	}
	for _, p := range c.Points() {
		if math.Abs(p.Prob-brute[p.Value]) > 1e-15 {
			t.Errorf("P(X=%d) = %g, brute force %g", p.Value, p.Prob, brute[p.Value])
		}
	}
}

// TestConvolveOverflowPanics: a pair sum outside int64 must fail
// loudly instead of wrapping into the bottom of the value domain.
func TestConvolveOverflowPanics(t *testing.T) {
	a := mustNew(t, []Point{{math.MaxInt64 - 10, 0.5}, {0, 0.5}})
	b := mustNew(t, []Point{{100, 0.5}, {0, 0.5}})
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "overflows int64") {
			t.Fatalf("recover() = %v, want overflow panic", r)
		}
	}()
	a.Convolve(b)
}

func TestShift(t *testing.T) {
	d := mustNew(t, []Point{{0, 0.5}, {10, 0.5}})
	s := d.Shift(7)
	if s.values[0] != 7 || s.Max() != 17 {
		t.Errorf("shift support [%d,%d]", s.values[0], s.Max())
	}
	if s.CCDF(7) != 0.5 || s.CCDF(16) != 0.5 || s.CCDF(17) != 0 {
		t.Error("shift CCDF wrong")
	}
	if d.Shift(0) != d {
		t.Error("Shift(0) must return the receiver")
	}
	if d.values[0] != 0 {
		t.Error("Shift mutated the receiver")
	}
}

// TestShiftOverflowPanics: v + delta wrapping past either end of
// int64 must panic with a clear message, not silently corrupt the
// support (the adversarial penalty/WCET-sum regression).
func TestShiftOverflowPanics(t *testing.T) {
	cases := []struct {
		name  string
		pts   []Point
		delta int64
	}{
		{"positive", []Point{{0, 0.5}, {math.MaxInt64 - 5, 0.5}}, 10},
		{"negative", []Point{{math.MinInt64 + 5, 0.5}, {0, 0.5}}, -10},
		{"max delta", []Point{{1, 1}}, math.MaxInt64},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := mustNew(t, c.pts)
			defer func() {
				if r := recover(); r == nil || !strings.Contains(r.(string), "overflows int64") {
					t.Fatalf("recover() = %v, want overflow panic", r)
				}
			}()
			d.Shift(c.delta)
		})
	}
	// The extremes staying in range must keep working, including at the
	// exact boundary.
	d := mustNew(t, []Point{{0, 0.5}, {math.MaxInt64 - 10, 0.5}})
	if s := d.Shift(10); s.Max() != math.MaxInt64 {
		t.Errorf("boundary shift Max = %d", s.Max())
	}
}

// TestQuantileBoundarySemantics pins the documented boundary behavior
// of QuantileExceedance and CCDF on a sub-unit-mass distribution (as
// arises after long mass-conserving-but-not-renormalizing operation
// chains; built directly via fromSorted so the boundary probabilities
// are exact powers of two). The doc promises: QuantileExceedance
// returns Max() at p == 0; CCDF below the support minimum is Mass(),
// not 1.
func TestQuantileBoundarySemantics(t *testing.T) {
	sub := fromSorted([]int64{0, 10, 20}, []float64{0.5, 0.25, 0.125})
	if m := sub.Mass(); m != 0.875 {
		t.Fatalf("test construction: Mass = %g, want 0.875", m)
	}
	qe := []struct {
		p    float64
		want int64
	}{
		{0.875, 0}, {0.375, 0}, {0.375 - 1e-12, 10}, {0.125, 10},
		{0.1, 20},
		{0, 20},  // p == 0: CCDF(Max) == 0 is the only qualifying value
		{-1, 20}, // p < 0: same clamp
	}
	for _, c := range qe {
		if got := sub.QuantileExceedance(c.p); got != c.want {
			t.Errorf("QuantileExceedance(%g) = %d, want %d", c.p, got, c.want)
		}
	}
	for _, tt := range []int64{-100, -1} {
		if got := sub.CCDF(tt); got != 0.875 {
			t.Errorf("CCDF(%d) = %g, want Mass() = 0.875", tt, got)
		}
	}
}

func TestCurveMatchesCCDF(t *testing.T) {
	d := mustNew(t, []Point{{0, 0.9}, {100, 0.09}, {200, 0.01}})
	curve := d.Curve()
	if len(curve) != d.Len() {
		t.Fatal("curve length mismatch")
	}
	for _, pt := range curve {
		if got := d.CCDF(pt.Value); got != pt.Prob {
			t.Errorf("Curve and CCDF disagree at %d: %g vs %g", pt.Value, pt.Prob, got)
		}
	}
	if last := curve[len(curve)-1]; last.Prob != 0 {
		t.Error("curve must end at probability 0")
	}
}

func TestMean(t *testing.T) {
	d := mustNew(t, []Point{{0, 0.5}, {10, 0.25}, {20, 0.25}})
	if m := d.Mean(); math.Abs(m-7.5) > 1e-12 {
		t.Errorf("Mean = %g, want 7.5", m)
	}
}

// TestGoldenCoarsenTo pins the coarsening scheme on a hand-built
// distribution: the lightest atoms merge upward into the next retained
// atom, the maximum always survives.
func TestGoldenCoarsenTo(t *testing.T) {
	d := mustNew(t, []Point{{0, 0.5}, {1, 0.3}, {2, 0.1}, {3, 0.06}, {4, 0.04}})
	c := d.CoarsenToWith(3, CoarsenLeastError)
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	// Lightest non-max atoms are 3 (0.06) and 2 (0.1): both merge into
	// the retained atom above them, the maximum 4.
	want := []Point{{0, 0.5}, {1, 0.3}, {4, 0.2}}
	for i, p := range c.Points() {
		if p.Value != want[i].Value || math.Abs(p.Prob-want[i].Prob) > 1e-15 {
			t.Errorf("atom %d = %v, want %v", i, p, want[i])
		}
	}
	// No-op cases return the receiver untouched.
	for _, n := range []int{5, 100, 0, -1} {
		if d.CoarsenToWith(n, CoarsenLeastError) != d {
			t.Errorf("CoarsenToWith(%d) must be a no-op when the support already fits", n)
		}
	}
	// Collapsing to a single atom puts all mass on the maximum.
	one := d.CoarsenToWith(1, CoarsenLeastError)
	if one.Len() != 1 || one.Max() != 4 || math.Abs(one.Mass()-1) > 1e-12 {
		t.Errorf("CoarsenToWith(1) = %v", one.Points())
	}
}

func TestDominatedBy(t *testing.T) {
	small := mustNew(t, []Point{{0, 0.9}, {10, 0.1}})
	big := mustNew(t, []Point{{0, 0.5}, {10, 0.3}, {20, 0.2}})
	if !small.DominatedBy(big, 0) {
		t.Error("small must be dominated by big")
	}
	if big.DominatedBy(small, 1e-9) {
		t.Error("big must not be dominated by small")
	}
	if !big.DominatedBy(big, 0) {
		t.Error("domination must be reflexive")
	}
	// A large tolerance absorbs the gap.
	if !big.DominatedBy(small, 1) {
		t.Error("tolerance 1 must make everything dominated")
	}
}
