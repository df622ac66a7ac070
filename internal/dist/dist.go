// Package dist implements sparse discrete probability distributions
// over int64 values — the execution-time penalty distributions at the
// heart of the pWCET analysis (paper Sections II.C and III). Each cache
// set contributes a small distribution of fault-induced miss penalties
// (its FMM row weighted by the faulty-way probabilities of equations 2
// and 3); the per-set distributions are convolved (sets fail
// independently) and the pWCET is read off the resulting exceedance
// curve (Figure 3).
//
// # Representation
//
// A Dist is an immutable, sorted, duplicate-free list of atoms
// (value, probability) with a precomputed complementary CDF. All
// methods return new distributions; a *Dist can be shared freely
// across goroutines. The exceedance probability CCDF(t) = P(X > t) is
// strict, so CCDF(Max()) == 0.
//
// # Normalization rules
//
// New validates its input: probabilities must be finite and
// non-negative, duplicate values are merged by summing their mass,
// zero-probability atoms are dropped (they carry no information and
// would corrupt Max), and the remaining total mass must be 1 within
// MassTolerance — inputs further away are rejected, inputs within the
// tolerance are rescaled to exactly sum to 1. Operations (Convolve,
// CoarsenToWith, Shift) conserve total mass to floating-point accuracy
// and never renormalize.
//
// # Soundness contract of coarsening
//
// CoarsenToWith bounds the support size by merging atoms, always moving
// mass to a LARGER value (the support maximum is always retained). Mass
// therefore only ever moves upward, so for every threshold t the
// coarsened exceedance probability is >= the exact one: the coarsened
// distribution is a sound (pessimistic) upper bound on the exceedance
// curve, and any pWCET quantile read from it can only grow. It never
// under-approximates exceedance. The contract holds for every
// CoarsenStrategy; the strategies differ only in how tight the bound
// stays (see coarsen.go).
package dist

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// MassTolerance is how far the total input mass of New may deviate
// from 1 and still be accepted (and rescaled). The faulty-way weights
// of equations 2 and 3 are binomial probabilities whose float sum is
// off by at most a few ulps; anything beyond this tolerance indicates
// a caller bug, not rounding.
const MassTolerance = 1e-9

// Point is one (value, probability) atom of a distribution.
type Point struct {
	Value int64
	Prob  float64
}

// Dist is a discrete probability distribution with sparse, sorted
// support. The zero value is not a valid distribution; use New or
// Degenerate.
type Dist struct {
	values []int64   // sorted ascending, no duplicates
	probs  []float64 // probs[i] > 0, sums to 1 (after New)
	ccdf   []float64 // ccdf[i] = P(X > values[i]); ccdf[len-1] == 0
}

// New builds a distribution from points, applying the package's
// normalization rules: negative, NaN or infinite probabilities are
// rejected; duplicate values are merged; zero-probability atoms are
// dropped; the total mass must be 1 within MassTolerance (then the
// atoms are rescaled to sum to exactly 1) or the input is rejected.
func New(points []Point) (*Dist, error) {
	if len(points) == 0 {
		return nil, errors.New("dist: no points")
	}
	pts := make([]Point, len(points))
	copy(pts, points)
	for _, p := range pts {
		if math.IsNaN(p.Prob) || math.IsInf(p.Prob, 0) {
			return nil, fmt.Errorf("dist: probability of value %d is %v", p.Value, p.Prob)
		}
		if p.Prob < 0 {
			return nil, fmt.Errorf("dist: negative probability %g of value %d", p.Prob, p.Value)
		}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].Value < pts[j].Value })
	values, probs := mergeSortedPoints(pts)
	if len(values) == 0 {
		return nil, errors.New("dist: zero total mass")
	}
	var mass float64
	for _, p := range probs {
		mass += p
	}
	if math.Abs(mass-1) > MassTolerance {
		return nil, fmt.Errorf("dist: total mass %g deviates from 1 by more than %g", mass, MassTolerance)
	}
	if mass != 1 {
		inv := 1 / mass
		for i := range probs {
			probs[i] *= inv
		}
	}
	return fromSorted(values, probs), nil
}

// Degenerate returns the distribution that takes value v with
// probability 1.
func Degenerate(v int64) *Dist {
	return &Dist{values: []int64{v}, probs: []float64{1}, ccdf: []float64{0}}
}

// mergeSortedPoints merges duplicate values and drops zero-mass atoms
// from value-sorted points, returning the parallel slices of the
// internal representation. Dropping zeros keeps the probs[i] > 0
// invariant: a zero atom carries no information and would corrupt Max.
func mergeSortedPoints(pts []Point) ([]int64, []float64) {
	values := make([]int64, 0, len(pts))
	probs := make([]float64, 0, len(pts))
	for _, p := range pts {
		if n := len(values); n > 0 && values[n-1] == p.Value {
			probs[n-1] += p.Prob
		} else {
			values = append(values, p.Value)
			probs = append(probs, p.Prob)
		}
	}
	out := 0
	for i := range values {
		if probs[i] > 0 {
			values[out], probs[out] = values[i], probs[i]
			out++
		}
	}
	return values[:out], probs[:out]
}

// fromSorted wraps already sorted, deduplicated, positive-mass atoms
// and precomputes the complementary CDF by a single backward suffix
// sum (one deterministic summation order, so CCDF, Curve and the
// quantiles always agree bit-for-bit).
func fromSorted(values []int64, probs []float64) *Dist {
	ccdf := make([]float64, len(values))
	var tail float64
	for i := len(values) - 1; i >= 0; i-- {
		ccdf[i] = tail
		tail += probs[i]
	}
	d := &Dist{values: values, probs: probs, ccdf: ccdf}
	if checkEnabled {
		d.check("fromSorted")
	}
	return d
}

// Len returns the number of support points.
func (d *Dist) Len() int { return len(d.values) }

// Max returns the largest support value.
func (d *Dist) Max() int64 { return d.values[len(d.values)-1] }

// Mass returns the total probability mass (1 up to floating-point
// error of the operations applied since New).
func (d *Dist) Mass() float64 { return d.ccdf[0] + d.probs[0] }

// Mean returns the expected value.
func (d *Dist) Mean() float64 {
	var m float64
	for i, v := range d.values {
		m += float64(v) * d.probs[i]
	}
	return m
}

// Points returns a copy of the support as (value, probability) atoms,
// sorted by ascending value.
func (d *Dist) Points() []Point {
	pts := make([]Point, len(d.values))
	for i, v := range d.values {
		pts[i] = Point{Value: v, Prob: d.probs[i]}
	}
	return pts
}

// Curve returns the exceedance curve: one (value, P(X > value)) point
// per support value, sorted by ascending value. The probabilities are
// non-increasing and the last one is 0.
func (d *Dist) Curve() []Point {
	pts := make([]Point, len(d.values))
	for i, v := range d.values {
		pts[i] = Point{Value: v, Prob: d.ccdf[i]}
	}
	return pts
}

// CCDF returns the exceedance probability P(X > t). For t below the
// support minimum it returns the total Mass() — exactly 1 after New,
// but possibly a few ulps away after long operation chains, since
// operations conserve mass only to floating-point accuracy and never
// renormalize.
func (d *Dist) CCDF(t int64) float64 {
	i := sort.Search(len(d.values), func(i int) bool { return d.values[i] > t })
	if i == 0 {
		return d.Mass()
	}
	return d.ccdf[i-1]
}

// QuantileExceedance returns the smallest support value t with
// P(X > t) <= p: the tightest bound whose exceedance probability meets
// the target. It is monotone non-increasing in p and returns Max()
// for p <= 0 — at p == 0 exactly, Max() is the unique answer, because
// CCDF(Max()) == 0 by construction while every smaller support value
// keeps a strictly positive exceedance (all atoms carry positive
// mass).
func (d *Dist) QuantileExceedance(p float64) int64 {
	i := sort.Search(len(d.ccdf), func(i int) bool { return d.ccdf[i] <= p })
	// Always found: ccdf[len-1] == 0 <= p for any p >= 0, and a
	// negative p selects the last index too.
	if i == len(d.values) {
		i = len(d.values) - 1
	}
	return d.values[i]
}

// Shift returns the distribution of X + delta. The probability
// vectors are shared with the receiver (both are immutable).
//
// Shift panics when v + delta overflows int64 for any support value:
// silently wrapping would teleport tail mass to the bottom of the
// value domain and break the soundness contract (an adversarial
// penalty or WCET sum must fail loudly, not produce an optimistic
// curve). Since the support is sorted it suffices to check the
// extremes, which is what the implementation does.
func (d *Dist) Shift(delta int64) *Dist {
	if delta == 0 {
		return d
	}
	if bound := d.values[len(d.values)-1]; delta > 0 && bound > math.MaxInt64-delta {
		panic(fmt.Sprintf("dist: Shift overflows int64: value %d + delta %d is not representable", bound, delta))
	}
	if bound := d.values[0]; delta < 0 && bound < math.MinInt64-delta {
		panic(fmt.Sprintf("dist: Shift overflows int64: value %d + delta %d is not representable", bound, delta))
	}
	values := make([]int64, len(d.values))
	for i, v := range d.values {
		values[i] = v + delta
	}
	out := &Dist{values: values, probs: d.probs, ccdf: d.ccdf}
	if checkEnabled {
		out.check("Shift")
	}
	return out
}

// DominatedBy reports whether d is stochastically dominated by o up to
// tol: for every threshold t, P(d > t) <= P(o > t) + tol. The CCDFs
// are step functions changing only at support values, so checking at
// every value of the union of both supports is exhaustive.
func (d *Dist) DominatedBy(o *Dist, tol float64) bool {
	i, j := 0, 0
	for i < len(d.values) || j < len(o.values) {
		var t int64
		switch {
		case i == len(d.values):
			t = o.values[j]
			j++
		case j == len(o.values):
			t = d.values[i]
			i++
		case d.values[i] <= o.values[j]:
			t = d.values[i]
			if o.values[j] == t {
				j++
			}
			i++
		default:
			t = o.values[j]
			j++
		}
		if d.CCDF(t) > o.CCDF(t)+tol {
			return false
		}
	}
	return true
}
