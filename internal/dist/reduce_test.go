package dist

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// foldConvolve is the reference left fold the tree reduction replaced:
// acc ⊗ d, coarsened after every step.
func foldConvolve(ds []*Dist, maxSupport int) *Dist {
	acc := Degenerate(0)
	for _, d := range ds {
		acc = acc.Convolve(d).CoarsenToWith(maxSupport, CoarsenLeastError)
	}
	return acc
}

func randomDists(t *testing.T, rng *rand.Rand, count, maxN int) []*Dist {
	t.Helper()
	ds := make([]*Dist, count)
	for i := range ds {
		ds[i] = randomDist(t, rng, maxN)
	}
	return ds
}

// TestConvolveAllMatchesFoldExact: with an unbinding support cap the
// tree reduction computes the same distribution as the sequential fold
// — identical support, probabilities equal up to reassociation
// rounding, and identical quantiles at every probability the pipeline
// reads (the golden values of the pWCET analysis).
func TestConvolveAllMatchesFoldExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 100; iter++ {
		ds := randomDists(t, rng, 1+rng.Intn(12), 6)
		const cap = 1 << 20 // never binds on these sizes
		tree := ConvolveAllWith(ds, cap, 1+rng.Intn(4), CoarsenLeastError)
		fold := foldConvolve(ds, cap)
		if tree.Len() != fold.Len() {
			t.Fatalf("support sizes differ: tree %d, fold %d", tree.Len(), fold.Len())
		}
		fp := fold.Points()
		for i, p := range tree.Points() {
			if p.Value != fp[i].Value {
				t.Fatalf("support differs at %d: %d vs %d", i, p.Value, fp[i].Value)
			}
			if math.Abs(p.Prob-fp[i].Prob) > 1e-12 {
				t.Fatalf("probability differs at value %d: %g vs %g", p.Value, fp[i].Prob, p.Prob)
			}
		}
		for _, q := range []float64{0.5, 1e-2, 1e-4, 1e-6, 1e-9, 1e-12, 1e-15} {
			if a, b := tree.QuantileExceedance(q), fold.QuantileExceedance(q); a != b {
				t.Fatalf("quantile at %g differs: tree %d, fold %d", q, a, b)
			}
		}
	}
}

// TestConvolveAllWorkerCountIrrelevant: the reduction is byte-identical
// for every worker count, binding cap or not.
func TestConvolveAllWorkerCountIrrelevant(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for iter := 0; iter < 60; iter++ {
		ds := randomDists(t, rng, 1+rng.Intn(20), 8)
		maxSupport := 2 + rng.Intn(64)
		ref := ConvolveAllWith(ds, maxSupport, 1, CoarsenLeastError)
		for _, workers := range []int{0, 2, 3, 7, 16} {
			got := ConvolveAllWith(ds, maxSupport, workers, CoarsenLeastError)
			if got.Len() != ref.Len() {
				t.Fatalf("workers=%d: support size %d vs %d", workers, got.Len(), ref.Len())
			}
			rp := ref.Points()
			for i, p := range got.Points() {
				if p != rp[i] {
					t.Fatalf("workers=%d: atom %d is %+v, want %+v (must be byte-identical)",
						workers, i, p, rp[i])
				}
			}
		}
	}
}

// TestConvolveAllSoundWhenCapBinds: with a binding cap the tree result
// must stochastically dominate the exact (uncoarsened) distribution —
// same contract as the fold — conserve mass, and keep the exact
// support maximum.
func TestConvolveAllSoundWhenCapBinds(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 60; iter++ {
		ds := randomDists(t, rng, 2+rng.Intn(10), 5)
		exact := ConvolveAllWith(ds, 0, 1, CoarsenLeastError) // cap disabled: exact distribution
		maxSupport := 2 + rng.Intn(16)
		coarse := ConvolveAllWith(ds, maxSupport, 2, CoarsenLeastError)
		if coarse.Len() > maxSupport {
			t.Fatalf("support %d exceeds cap %d", coarse.Len(), maxSupport)
		}
		if coarse.Max() != exact.Max() {
			t.Fatalf("support maximum changed: %d vs %d", coarse.Max(), exact.Max())
		}
		if m := coarse.Mass(); math.Abs(m-1) > 1e-9 {
			t.Fatalf("mass drifted to %g", m)
		}
		if !exact.DominatedBy(coarse, 1e-9) {
			t.Fatal("coarse tree result does not dominate the exact distribution")
		}
	}
}

// TestConvolveAllEdgeCases: empty input is the neutral element; a
// single distribution is returned coarsened, like the fold would.
func TestConvolveAllEdgeCases(t *testing.T) {
	if d := ConvolveAllWith(nil, 16, 4, CoarsenLeastError); d.Len() != 1 || d.Max() != 0 {
		t.Fatalf("empty reduction = %v, want Degenerate(0)", d.Points())
	}
	rng := rand.New(rand.NewSource(14))
	d := randomDist(t, rng, 40)
	got := ConvolveAllWith([]*Dist{d}, 8, 4, CoarsenLeastError)
	want := d.CoarsenToWith(8, CoarsenLeastError)
	if got.Len() != want.Len() {
		t.Fatalf("single-dist reduction has %d atoms, want %d", got.Len(), want.Len())
	}
	wp := want.Points()
	for i, p := range got.Points() {
		if p != wp[i] {
			t.Fatalf("single-dist atom %d: %+v vs %+v", i, p, wp[i])
		}
	}
}

// TestConvolveAllCancellation pins the probe contract of both
// executors: a probe that fails on its k-th call — the up-front check,
// the first merge node, a middle one or the last — makes the call
// return exactly that error and no distribution, and at workers 4 no
// merge goroutine outlives the call. A probe that never fails changes
// no atom.
func TestConvolveAllCancellation(t *testing.T) {
	ds := benchShapeDists(t, 64)
	const maxSupport = 1 << 20 // never binds: both executors agree bitwise
	want := ConvolveAllWith(ds, maxSupport, 1, CoarsenLeastError)
	errStop := errors.New("probe stop")
	executors := []struct {
		name string
		run  func(probe func() error) (*Dist, error)
	}{
		{"opt/workers=1", func(probe func() error) (*Dist, error) {
			return ConvolveAllCancelWith(ds, maxSupport, 1, CoarsenLeastError, probe)
		}},
		{"opt/workers=4", func(probe func() error) (*Dist, error) {
			return ConvolveAllCancelWith(ds, maxSupport, 4, CoarsenLeastError, probe)
		}},
		{"exact", func(probe func() error) (*Dist, error) {
			return ConvolveAllExact(ds, maxSupport, CoarsenLeastError, probe)
		}},
	}
	for _, ex := range executors {
		var calls atomic.Int64
		got, err := ex.run(func() error { calls.Add(1); return nil })
		if err != nil {
			t.Fatalf("%s: never-failing probe returned %v", ex.name, err)
		}
		assertSameDist(t, ex.name+"/never-failing", got, want)
		total := calls.Load()
		if total < 3 {
			t.Fatalf("%s: probe consulted %d times, want once up front and once per merge node", ex.name, total)
		}
		for _, k := range []int64{1, 2, total / 2, total} {
			baseline := runtime.NumGoroutine()
			var n atomic.Int64
			got, err := ex.run(func() error {
				if n.Add(1) >= k {
					return errStop
				}
				return nil
			})
			if !errors.Is(err, errStop) || got != nil {
				t.Fatalf("%s: probe failing on call %d of %d gave (%v, %v), want (nil, %v)",
					ex.name, k, total, got, err, errStop)
			}
			waitGoroutines(t, ex.name, baseline)
		}
	}
}

// waitGoroutines polls until the goroutine count drops back to at most
// baseline, failing after a generous deadline: a canceled reduction
// must leave no merge goroutine behind.
func waitGoroutines(t *testing.T, label string, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC() // nudges finished goroutines through exit
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines running after the call returned, baseline %d", label, n, baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// FuzzConvolveAll feeds arbitrary byte-derived distribution lists to
// the parallel reduction and checks the invariants that must hold for
// any input: worker-count independence (byte-identical atoms), support
// cap respected, unit mass conserved, and dominance over the exact
// distribution when coarsening kicked in.
func FuzzConvolveAll(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(8), uint8(3))
	f.Add([]byte{0, 0, 0, 0}, uint8(2), uint8(1))
	f.Add([]byte{9, 200, 9, 200, 9, 200, 9, 200, 9, 200, 9}, uint8(4), uint8(9))
	f.Fuzz(func(t *testing.T, data []byte, cap8, workers8 uint8) {
		maxSupport := 2 + int(cap8)
		workers := int(workers8 % 9)
		// Decode pairs of bytes into atoms, 3 atoms per distribution.
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
		got := ConvolveAllWith(ds, maxSupport, workers, CoarsenLeastError)
		if got.Len() > maxSupport {
			t.Fatalf("support %d exceeds cap %d", got.Len(), maxSupport)
		}
		if m := got.Mass(); math.Abs(m-1) > 1e-9 {
			t.Fatalf("mass drifted to %g", m)
		}
		ref := ConvolveAllWith(ds, maxSupport, 1, CoarsenLeastError)
		if got.Len() != ref.Len() {
			t.Fatalf("workers=%d changed support size: %d vs %d", workers, got.Len(), ref.Len())
		}
		rp := ref.Points()
		for i, p := range got.Points() {
			if p != rp[i] {
				t.Fatalf("workers=%d changed atom %d: %+v vs %+v", workers, i, p, rp[i])
			}
		}
		exact := ConvolveAllWith(ds, 0, 2, CoarsenLeastError)
		if !exact.DominatedBy(got, 1e-9) {
			t.Fatal("reduction result does not dominate the exact distribution")
		}
	})
}

// TestBuildMergePlanEqualSizes: with equal-size inputs the size-aware
// schedule must degenerate to the balanced pairwise tree — (0,1),
// (2,3), ... then the products in creation order — which is what keeps
// pipeline results identical to the level-synchronized reduction this
// replaced.
func TestBuildMergePlanEqualSizes(t *testing.T) {
	ds := make([]*Dist, 8)
	for i := range ds {
		d, err := New([]Point{{Value: int64(i), Prob: 0.5}, {Value: int64(i) + 100, Prob: 0.5}})
		if err != nil {
			t.Fatal(err)
		}
		ds[i] = d
	}
	plan := buildMergePlan(ds, 4096)
	want := []mergeStep{{0, 1}, {2, 3}, {4, 5}, {6, 7}, {8, 9}, {10, 11}, {12, 13}}
	if len(plan) != len(want) {
		t.Fatalf("plan has %d steps, want %d", len(plan), len(want))
	}
	for i, st := range plan {
		if st != want[i] {
			t.Fatalf("plan step %d is %+v, want %+v", i, st, want[i])
		}
	}
}

// TestBuildMergePlanSkewedSizes: small operands must pair with each
// other before touching a capped large partial, Huffman-style.
func TestBuildMergePlanSkewedSizes(t *testing.T) {
	mk := func(atoms int) *Dist {
		pts := make([]Point, atoms)
		for i := range pts {
			pts[i] = Point{Value: int64(i), Prob: 1 / float64(atoms)}
		}
		d, err := New(pts)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	// One big distribution and three tiny ones: the tiny ones must
	// merge together first; the big one joins last.
	ds := []*Dist{mk(4096), mk(2), mk(2), mk(2)}
	plan := buildMergePlan(ds, 4096)
	if plan[0] != (mergeStep{1, 2}) {
		t.Fatalf("first step %+v, want the two smallest {1 2}", plan[0])
	}
	if plan[1] != (mergeStep{3, 4}) {
		t.Fatalf("second step %+v, want tiny with tiny-product {3 4}", plan[1])
	}
	if plan[2] != (mergeStep{5, 0}) {
		t.Fatalf("last step %+v, want the big operand joining last {5 0}", plan[2])
	}
}
