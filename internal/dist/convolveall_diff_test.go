package dist

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// This file is the differential suite pinning the optimized monoid
// reduction (convolveAllOpt, behind ConvolveAllWith and
// ConvolveAllCancelWith) to the retained reference executor
// (ConvolveAllExact):
//
//   - byte identity whenever no coarsening binds, across input shapes
//     (equal, shifted, distinct, mixed multisets), counts from 1 to 256,
//     narrow and wide value spans, and optimized-executor worker counts
//     1 and 4 (the suite runs under -race in CI, so the parallel
//     executor is exercised for data races too);
//   - sound, bounded divergence when coarsening does bind: support cap
//     respected, support maximum preserved, unit mass conserved, the
//     exact distribution dominated, and the in-tree area spend within
//     its advertised budget.

// diffWorkers are the worker counts every differential case runs the
// optimized executor under.
var diffWorkers = []int{1, 4}

// mustExact runs the reference executor without a cancellation probe.
func mustExact(t *testing.T, ds []*Dist, maxSupport int, strategy CoarsenStrategy) *Dist {
	t.Helper()
	d, err := ConvolveAllExact(ds, maxSupport, strategy, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// mustDist builds a distribution from points or fails the test.
func mustDist(t *testing.T, pts []Point) *Dist {
	t.Helper()
	d, err := New(pts)
	if err != nil {
		t.Fatalf("New(%v): %v", pts, err)
	}
	return d
}

// assertSameDist fails unless got and want are byte-identical: same
// support, and probabilities equal as float64 bit patterns.
func assertSameDist(t *testing.T, label string, got, want *Dist) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: support size %d, want %d", label, got.Len(), want.Len())
	}
	wp := want.Points()
	for i, p := range got.Points() {
		if p != wp[i] {
			t.Fatalf("%s: atom %d is {%d %g}, want {%d %g} (must be byte-identical)",
				label, i, p.Value, p.Prob, wp[i].Value, wp[i].Prob)
		}
	}
}

// diffCase is one input multiset plus a cap that must not bind on it.
type diffCase struct {
	name string
	ds   []*Dist
	cap  int
}

// unboundCases builds the byte-identity corpus: every shape the FMM
// stage emits (replicated per-set distributions, shifted copies,
// heterogeneous sets) plus adversarial ones (wide strided spans that
// exercise the stride-dense accumulator, single inputs, cap disabled).
func unboundCases(t *testing.T, rng *rand.Rand) []diffCase {
	t.Helper()
	var cases []diffCase

	for _, count := range []int{1, 2, 3, 5, 8, 13} {
		cases = append(cases, diffCase{
			name: fmt.Sprintf("distinct-%d", count),
			ds:   randomDists(t, rng, count, 6),
			cap:  1 << 20,
		})
	}

	// k identical narrow inputs: the hash-consed plan computes O(log k)
	// convolutions; the result must still match the exact executor's
	// 255-convolution chain bit for bit.
	base := mustDist(t, []Point{{Value: 0, Prob: 0.5}, {Value: 1, Prob: 0.3}, {Value: 3, Prob: 0.2}})
	for _, count := range []int{2, 16, 256} {
		eq := make([]*Dist, count)
		for i := range eq {
			eq[i] = base
		}
		cases = append(cases, diffCase{name: fmt.Sprintf("equal-%d", count), ds: eq, cap: 1 << 20})
	}

	// Shifted copies: one shift-equivalence class, non-zero deltas.
	sh := make([]*Dist, 64)
	for i := range sh {
		sh[i] = base.Shift(int64(i * 7))
	}
	cases = append(cases, diffCase{name: "shifted-64", ds: sh, cap: 1 << 20})

	// Mixed multiset: equal runs, shifted runs, and distinct inputs.
	var mixed []*Dist
	for i := 0; i < 10; i++ {
		mixed = append(mixed, base)
	}
	for i := 0; i < 10; i++ {
		mixed = append(mixed, base.Shift(int64(100+3*i)))
	}
	mixed = append(mixed, randomDists(t, rng, 6, 5)...)
	cases = append(cases, diffCase{name: "mixed-26", ds: mixed, cap: 1 << 20})

	// Wide strided spans: values on a coarse common grid, so the
	// convolutions take the stride-compressed dense path.
	wide := make([]*Dist, 12)
	for i := range wide {
		wide[i] = mustDist(t, []Point{
			{Value: 0, Prob: 0.6},
			{Value: int64(1+rng.Intn(50)) * 1_000_000, Prob: 0.3},
			{Value: int64(60+rng.Intn(50)) * 1_000_000, Prob: 0.1},
		})
	}
	cases = append(cases, diffCase{name: "wide-stride-12", ds: wide, cap: 1 << 21})

	// Cap disabled entirely.
	cases = append(cases, diffCase{name: "cap-disabled", ds: randomDists(t, rng, 9, 5), cap: 0})
	return cases
}

// TestConvolveAllByteIdenticalToExact: whenever no coarsening binds the
// optimized reduction must reproduce the reference executor bit for
// bit, for both strategies and every worker count.
func TestConvolveAllByteIdenticalToExact(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, tc := range unboundCases(t, rng) {
		for _, strategy := range []CoarsenStrategy{CoarsenLeastError, CoarsenKeepHeaviest} {
			want := mustExact(t, tc.ds, tc.cap, strategy)
			if tc.cap > 0 && want.Len() > tc.cap {
				t.Fatalf("%s: corpus bug: cap %d binds (exact support %d)", tc.name, tc.cap, want.Len())
			}
			for _, workers := range diffWorkers {
				label := fmt.Sprintf("%s/%v/workers=%d", tc.name, strategy, workers)
				assertSameDist(t, label, ConvolveAllWith(tc.ds, tc.cap, workers, strategy), want)
			}
		}
	}
}

// TestConvolveAllBoundedWhenCoarseningBinds: with a binding cap the two
// executors may diverge, but both must stay sound coarsenings of the
// same exact distribution: support within the cap, exact support
// maximum kept, unit mass, and stochastic dominance.
func TestConvolveAllBoundedWhenCoarseningBinds(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for iter := 0; iter < 40; iter++ {
		ds := randomDists(t, rng, 2+rng.Intn(24), 5)
		exact := ConvolveAllWith(ds, 0, 1, CoarsenLeastError)
		maxSupport := 2 + rng.Intn(24)
		labels := []string{"exact-executor"}
		results := []*Dist{mustExact(t, ds, maxSupport, CoarsenLeastError)}
		for _, workers := range diffWorkers {
			labels = append(labels, fmt.Sprintf("opt/workers=%d", workers))
			results = append(results, ConvolveAllWith(ds, maxSupport, workers, CoarsenLeastError))
		}
		for i, got := range results {
			label := fmt.Sprintf("iter %d/%s", iter, labels[i])
			if got.Len() > maxSupport {
				t.Fatalf("%s: support %d exceeds cap %d", label, got.Len(), maxSupport)
			}
			if got.Max() != exact.Max() {
				t.Fatalf("%s: support maximum %d, want %d", label, got.Max(), exact.Max())
			}
			if m := got.Mass(); math.Abs(m-1) > 1e-9 {
				t.Fatalf("%s: mass drifted to %g", label, m)
			}
			if !exact.DominatedBy(got, 1e-9) {
				t.Fatalf("%s: result does not dominate the exact distribution", label)
			}
		}
	}
}

// benchShapeDists replicates the 256-set workload of the root
// BenchmarkConvolveAllWorkers: one 5-atom penalty distribution per set
// on a stride-100 grid, deep enough over any small cap to arm in-tree
// coarsening.
func benchShapeDists(t *testing.T, sets int) []*Dist {
	t.Helper()
	pbf := 1 - math.Pow(1-1e-4, 128)
	binom := []float64{1, 4, 6, 4, 1}
	pwf := make([]float64, 5)
	for f := range pwf {
		pwf[f] = binom[f] * math.Pow(pbf, float64(f)) * math.Pow(1-pbf, float64(4-f))
	}
	rng := rand.New(rand.NewSource(1))
	ds := make([]*Dist, sets)
	for s := range ds {
		pts := make([]Point, len(pwf))
		v := int64(0)
		for f := range pts {
			pts[f] = Point{Value: v * 100, Prob: pwf[f]}
			v += int64(1 + rng.Intn(25))
		}
		ds[s] = mustDist(t, pts)
	}
	return ds
}

// TestConvolveAllInTreeBudgetRespected pins the armed in-tree regime:
// on a deeply over-cap workload the optimized reduction must actually
// arm (non-zero budget), spend no more area than advertised, stay a
// sound dominating bound with the exact maximum, and remain
// byte-identical across worker counts.
func TestConvolveAllInTreeBudgetRespected(t *testing.T) {
	ds := benchShapeDists(t, 256)
	const maxSupport = 512
	if rb := reductionBound(canonicalSort(ds)); rb <= inTreeSlack*int64(maxSupport) {
		t.Fatalf("corpus bug: reductionBound %d does not arm in-tree coarsening at cap %d", rb, maxSupport)
	}
	exact := mustExact(t, ds, 0, CoarsenLeastError)
	var ref *Dist
	for _, workers := range diffWorkers {
		got, st, _ := convolveAllOpt(ds, maxSupport, workers, CoarsenLeastError, nil)
		label := fmt.Sprintf("workers=%d", workers)
		if st.softBudget == 0 {
			t.Fatalf("%s: in-tree coarsening did not arm", label)
		}
		if st.softSpent > st.softBudget {
			t.Fatalf("%s: in-tree area spend %g exceeds budget %g", label, st.softSpent, st.softBudget)
		}
		if got.Len() > maxSupport {
			t.Fatalf("%s: support %d exceeds cap %d", label, got.Len(), maxSupport)
		}
		// No Max-equality assertion here: on a 256-fold product the
		// deepest atoms' probabilities underflow float64 to zero and are
		// dropped, and where that happens depends on the merge-tree
		// shape, which differs between the cap-0 reference and the armed
		// plan. Dominance below (with tolerance far above the underflow
		// scale) is the invariant that is actually shape-independent.
		if m := got.Mass(); math.Abs(m-1) > 1e-9 {
			t.Fatalf("%s: mass drifted to %g", label, m)
		}
		if !exact.DominatedBy(got, 1e-9) {
			t.Fatalf("%s: armed result does not dominate the exact distribution", label)
		}
		if ref == nil {
			ref = got
		} else {
			assertSameDist(t, label, got, ref)
		}
	}
}

// TestConvolveAllSharingStats pins the monoid detection itself: equal
// inputs collapse to one shift class and O(log k) unique convolutions
// (the exponentiation-by-squaring shape), shifted copies land in the
// same class, and distinct inputs do not alias.
func TestConvolveAllSharingStats(t *testing.T) {
	base := mustDist(t, []Point{{Value: 2, Prob: 0.5}, {Value: 9, Prob: 0.5}})
	eq := make([]*Dist, 256)
	for i := range eq {
		eq[i] = base
	}
	_, st, _ := convolveAllOpt(eq, 0, 1, CoarsenLeastError, nil)
	if st.classes != 1 {
		t.Fatalf("256 equal inputs: %d shift classes, want 1", st.classes)
	}
	if st.planNodes != 255 {
		t.Fatalf("256 equal inputs: %d plan nodes, want 255", st.planNodes)
	}
	if st.uniqueNodes != 8 {
		t.Fatalf("256 equal inputs: %d unique convolutions, want 8 (log2 256)", st.uniqueNodes)
	}

	sh := make([]*Dist, 32)
	for i := range sh {
		sh[i] = base.Shift(int64(i))
	}
	_, st, _ = convolveAllOpt(sh, 0, 1, CoarsenLeastError, nil)
	if st.classes != 1 {
		t.Fatalf("32 shifted copies: %d shift classes, want 1", st.classes)
	}
	if st.uniqueNodes != 5 {
		t.Fatalf("32 shifted copies: %d unique convolutions, want 5 (log2 32)", st.uniqueNodes)
	}

	rng := rand.New(rand.NewSource(23))
	distinct := randomDists(t, rng, 16, 6)
	_, st, _ = convolveAllOpt(distinct, 0, 1, CoarsenLeastError, nil)
	if st.classes < 2 {
		t.Fatalf("distinct inputs: %d shift classes, want several", st.classes)
	}
}

// FuzzConvolveAllPlan pins the monoid property the canonical plan is
// built on: the reduction is a pure function of the input MULTISET,
// never of input order. Any permutation of the inputs must yield a
// byte-identical distribution, from both the optimized and the exact
// executor, for binding and non-binding caps alike.
func FuzzConvolveAllPlan(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(8), uint64(1))
	f.Add([]byte{9, 200, 9, 200, 9, 200, 9, 200, 9, 200, 9, 0}, uint8(3), uint64(42))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, uint8(2), uint64(7))
	f.Fuzz(func(t *testing.T, data []byte, cap8 uint8, seed uint64) {
		maxSupport := 2 + int(cap8)
		// Decode pairs of bytes into atoms, 3 atoms per distribution,
		// like FuzzConvolveAll. Repeated byte patterns naturally produce
		// equal and shifted inputs, exercising the sharing paths.
		var ds []*Dist
		var pts []Point
		for len(data) >= 2 {
			v := int64(binary.LittleEndian.Uint16(data[:2]) % 512)
			pts = append(pts, Point{Value: v, Prob: 1})
			data = data[2:]
			if len(pts) == 3 {
				for i := range pts {
					pts[i].Prob = 1.0 / 3
				}
				d, err := New(pts)
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				ds = append(ds, d)
				pts = nil
			}
		}
		if len(ds) == 0 || len(ds) > 24 {
			return
		}
		perm := rand.New(rand.NewSource(int64(seed))).Perm(len(ds))
		shuffled := make([]*Dist, len(ds))
		for i, j := range perm {
			shuffled[j] = ds[i]
		}
		ref := ConvolveAllWith(ds, maxSupport, 1, CoarsenLeastError)
		assertSameDist(t, "opt permuted", ConvolveAllWith(shuffled, maxSupport, 2, CoarsenLeastError), ref)
		assertSameDist(t, "exact permuted", mustExact(t, shuffled, maxSupport, CoarsenLeastError), mustExact(t, ds, maxSupport, CoarsenLeastError))
	})
}
