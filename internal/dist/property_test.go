package dist

// Property-based tests: randomized distributions checked against the
// package's invariants — mass conservation under every operation, CCDF
// shape, coarsening soundness (exceedance never decreases), and
// convolution commutativity.

import (
	"math"
	"math/rand"
	"testing"
)

// randomDist draws a distribution with up to maxN atoms. Values
// collide on purpose (exercising the merge path) and weights span
// many orders of magnitude (exercising tiny tail masses like the
// faulty-way probabilities).
func randomDist(t *testing.T, rng *rand.Rand, maxN int) *Dist {
	t.Helper()
	n := 1 + rng.Intn(maxN)
	w := make([]float64, n)
	var sum float64
	for i := range w {
		w[i] = math.Pow(10, -float64(rng.Intn(10))) * (rng.Float64() + 1e-3)
		sum += w[i]
	}
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{Value: int64(rng.Intn(500)) * int64(1+rng.Intn(5)), Prob: w[i] / sum}
	}
	d, err := New(pts)
	if err != nil {
		t.Fatalf("randomDist: %v", err)
	}
	return d
}

func checkMass(t *testing.T, d *Dist, context string) {
	t.Helper()
	if m := d.Mass(); math.Abs(m-1) > 1e-12 {
		t.Fatalf("%s: total mass %g drifted from 1", context, m)
	}
}

// TestPropertyMassConserved: Convolve, CoarsenToWith and Shift all
// conserve total probability mass to within 1e-12.
func TestPropertyMassConserved(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 200; iter++ {
		a := randomDist(t, rng, 30)
		b := randomDist(t, rng, 30)
		checkMass(t, a.Convolve(b), "Convolve")
		checkMass(t, a.CoarsenToWith(1+rng.Intn(a.Len()), CoarsenLeastError), "CoarsenToWith")
		checkMass(t, a.Shift(int64(rng.Intn(2001)-1000)), "Shift")
	}
}

// TestPropertyCCDFShape: the CCDF is monotone non-increasing in t,
// starts at the total mass below the support, and is exactly 0 at and
// beyond the maximum.
func TestPropertyCCDFShape(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 200; iter++ {
		d := randomDist(t, rng, 40)
		if got := d.CCDF(d.values[0] - 1); math.Abs(got-d.Mass()) > 1e-15 {
			t.Fatalf("CCDF below support = %g, want mass %g", got, d.Mass())
		}
		if d.CCDF(d.Max()) != 0 {
			t.Fatal("CCDF(Max) must be 0")
		}
		prev := math.Inf(1)
		for _, pt := range d.Curve() {
			if pt.Prob > prev {
				t.Fatalf("CCDF increased from %g to %g at %d", prev, pt.Prob, pt.Value)
			}
			prev = pt.Prob
		}
		// Spot-check arbitrary thresholds too, including between atoms.
		prev = math.Inf(1)
		for x := d.values[0] - 2; x <= d.Max()+2; x += 1 + int64(rng.Intn(3)) {
			c := d.CCDF(x)
			if c > prev {
				t.Fatalf("CCDF(%d) = %g above CCDF at smaller t %g", x, c, prev)
			}
			prev = c
		}
	}
}

// TestPropertyCoarsenSound: coarsening never decreases any exceedance
// probability (the soundness contract), and consequently never lowers
// any exceedance quantile.
func TestPropertyCoarsenSound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 200; iter++ {
		d := randomDist(t, rng, 50)
		c := d.CoarsenToWith(1+rng.Intn(d.Len()), CoarsenLeastError)
		for _, pt := range d.Curve() {
			if got := c.CCDF(pt.Value); got < pt.Prob-1e-15 {
				t.Fatalf("coarse CCDF(%d) = %g below exact %g", pt.Value, got, pt.Prob)
			}
		}
		if c.Max() != d.Max() {
			t.Fatal("coarsening must retain the support maximum")
		}
		for _, p := range []float64{0.5, 0.1, 1e-3, 1e-6, 1e-9, 1e-15} {
			if c.QuantileExceedance(p) < d.QuantileExceedance(p) {
				t.Fatalf("coarse quantile at %g below exact", p)
			}
		}
	}
}

// TestPropertyConvolveCommutative: a ⊗ b and b ⊗ a agree atom by atom
// on random inputs (associativity of the underlying sums; float
// accumulation order may differ, hence the tolerance).
func TestPropertyConvolveCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for iter := 0; iter < 200; iter++ {
		a := randomDist(t, rng, 30)
		b := randomDist(t, rng, 30)
		ab, ba := a.Convolve(b), b.Convolve(a)
		if ab.Len() != ba.Len() {
			t.Fatalf("support sizes differ: %d vs %d", ab.Len(), ba.Len())
		}
		pb := ba.Points()
		for i, p := range ab.Points() {
			if p.Value != pb[i].Value {
				t.Fatalf("values differ at %d: %d vs %d", i, p.Value, pb[i].Value)
			}
			if math.Abs(p.Prob-pb[i].Prob) > 1e-12 {
				t.Fatalf("probs differ at value %d: %g vs %g", p.Value, p.Prob, pb[i].Prob)
			}
		}
	}
}

// TestPropertyConvolveMatchesBruteForce: the optimized convolution
// (dense or sparse path) equals exhaustive enumeration.
func TestPropertyConvolveMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 100; iter++ {
		a := randomDist(t, rng, 20)
		b := randomDist(t, rng, 20)
		c := a.Convolve(b)
		brute := bruteConvolve(a, b)
		if c.Len() != len(brute) {
			t.Fatalf("support size %d, want %d", c.Len(), len(brute))
		}
		for _, p := range c.Points() {
			if math.Abs(p.Prob-brute[p.Value]) > 1e-12 {
				t.Fatalf("P(X=%d) = %g, brute force %g", p.Value, p.Prob, brute[p.Value])
			}
		}
	}
}

// TestPropertyQuantileConsistency: QuantileExceedance inverts the
// CCDF (its result's exceedance meets the target, the next smaller
// atom's does not), and is monotone as the target tightens.
func TestPropertyQuantileConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for iter := 0; iter < 200; iter++ {
		d := randomDist(t, rng, 40)
		prev := int64(math.MinInt64)
		for _, p := range []float64{1, 0.3, 1e-2, 1e-4, 1e-8, 1e-12, 0} {
			v := d.QuantileExceedance(p)
			if v < prev {
				t.Fatalf("quantile shrank from %d to %d as target tightened to %g", prev, v, p)
			}
			prev = v
			if d.CCDF(v) > p {
				t.Fatalf("CCDF(quantile %d) = %g above target %g", v, d.CCDF(v), p)
			}
			if v > d.values[0] && p < d.Mass() {
				// The previous support atom must still exceed the target.
				pts := d.Points()
				for i := 1; i < len(pts); i++ {
					if pts[i].Value == v && d.CCDF(pts[i-1].Value) <= p {
						t.Fatalf("quantile %d not minimal for target %g", v, p)
					}
				}
			}
		}
	}
}

// TestPropertyShiftInvariants: shifting translates the support and
// quantiles, leaving probabilities untouched.
func TestPropertyShiftInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		d := randomDist(t, rng, 40)
		delta := int64(rng.Intn(4001) - 2000)
		s := d.Shift(delta)
		if s.values[0] != d.values[0]+delta || s.Max() != d.Max()+delta {
			t.Fatal("shift moved the support wrongly")
		}
		if s.QuantileExceedance(1e-6) != d.QuantileExceedance(1e-6)+delta {
			t.Fatal("shift broke the quantile")
		}
		if s.CCDF(delta+d.values[0]) != d.CCDF(d.values[0]) {
			t.Fatal("shift changed a probability")
		}
	}
}
