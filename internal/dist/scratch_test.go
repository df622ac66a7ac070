package dist

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// coarsenCapped runs the least-error engine under the span cap maxGap
// on a copy of d's masses in s, as coarsen does for a Dist.
func (s *scratch) coarsenCapped(d *Dist, target int, maxGap float64) *Dist {
	mass := grow(&s.probs, len(d.probs))
	copy(mass, d.probs)
	return s.coarsenLeastErrorCapped(d.values, mass, target, maxGap)
}

// requireZeroAccumulator fails unless every cell of s's accumulator,
// over its whole capacity, is zero.
func requireZeroAccumulator(t *testing.T, label string, s *scratch) {
	t.Helper()
	for k, p := range s.acc[:cap(s.acc)] {
		if p != 0 {
			t.Fatalf("%s: accumulator cell %d = %g after the call, want 0", label, k, p)
		}
	}
}

// oracleConvolveCoarsen is the fused kernel written out without a
// scratch: every pair product summed by naiveConvolve, then the
// lazy-heap least-error oracle or keep-heaviest when c binds.
func oracleConvolveCoarsen(a, b *Dist, c coarsening) *Dist {
	sum := naiveConvolve(a, b)
	switch {
	case !c.binds(sum.Len()):
		return sum
	case c.spanCap:
		return sum.coarsenLeastErrorLazy(c.target, softMaxGap(sum.values, c.target))
	case c.strategy == CoarsenLeastError:
		return sum.coarsenLeastErrorLazy(c.target, math.Inf(1))
	default:
		return coarsenKeepHeaviest(sum.values, sum.probs, c.target)
	}
}

// scratchCall is one call of the reuse sequence.
type scratchCall struct {
	name string
	a, b *Dist
	c    coarsening
}

// scratchSequence is a seeded sequence of fused calls that reuses one
// scratch in every way a reduction does: operand sizes that rise and
// fall (so every array both grows and is used below its capacity),
// stride g > 1 grids, rows with and without the segment, products that
// are subnormal or round to +0, the k-way path, and sums under and over
// the cap, coarsened with and without a span cap and by keep-heaviest.
func scratchSequence() []scratchCall {
	rng := rand.New(rand.NewSource(24))
	// random: n atoms on the stride grid with gaps of 1..3 strides and
	// random masses.
	random := func(n int, stride int64) *Dist {
		vs := make([]int64, n)
		ps := make([]float64, n)
		v := int64(0)
		var sum float64
		for i := range vs {
			vs[i] = v
			ps[i] = 0.1 + rng.Float64()
			sum += ps[i]
			v += stride * int64(1+rng.Intn(3))
		}
		for i := range ps {
			ps[i] /= sum
		}
		return fromSorted(vs, ps)
	}
	// wide: n atoms whose span is too wide for the accumulator, so the
	// k-way merge runs and the sum is coarsened from a Dist.
	wide := func(n int) *Dist {
		vs := make([]int64, n)
		ps := make([]float64, n)
		v := int64(0)
		for i := range vs {
			vs[i] = v
			ps[i] = 1 / float64(n)
			v += int64(1 + rng.Intn(1<<40))
		}
		return fromSorted(vs, ps)
	}
	least := func(target int) coarsening { return coarsening{target: target, strategy: CoarsenLeastError} }
	capped := func(target int) coarsening {
		return coarsening{target: target, strategy: CoarsenLeastError, spanCap: true}
	}
	heaviest := func(target int) coarsening { return coarsening{target: target, strategy: CoarsenKeepHeaviest} }
	var calls []scratchCall
	add := func(name string, a, b *Dist, c coarsening) {
		calls = append(calls, scratchCall{name: name, a: a, b: b, c: c})
	}
	add("small-uncapped", random(5, 1), random(7, 1), coarsening{})
	add("rise-over-cap", random(300, 1), random(200, 1), least(400))
	add("fall-under-cap", random(20, 2), random(30, 2), least(4096))
	// A span of at least minStrideCells puts the sum on the g = 100 grid.
	add("stride-100-over-cap", random(400, 100), random(300, 100), capped(500))
	add("stride-100-under-cap", random(40, 100), random(50, 100), least(4096))
	for _, tc := range segmentCases() {
		add("segment-"+tc.name, tc.a, tc.b, capped(300))
	}
	add("deep-tail-over-cap", benchTailDist(300, 1), benchTailDist(200, 2), least(256))
	add("deep-tail-capped", benchTailDist(300, 3), benchTailDist(300, 4), capped(256))
	add("keep-heaviest", random(150, 3), random(150, 3), heaviest(100))
	add("k-way-over-cap", wide(60), wide(50), capped(200))
	add("k-way-keep-heaviest", wide(40), wide(40), heaviest(100))
	add("shift-over-cap", Degenerate(7), random(600, 1), least(100))
	add("large-then-tiny", random(800, 1), random(500, 1), least(1000))
	add("tiny-after-large", random(3, 1), random(4, 5), least(2))
	for i := 0; i < 8; i++ {
		n, m := 2+rng.Intn(400), 2+rng.Intn(400)
		stride := []int64{1, 2, 100}[rng.Intn(3)]
		cs := []coarsening{{}, least(1 + rng.Intn(n*m)), capped(2 + rng.Intn(n*m)), heaviest(1 + rng.Intn(n*m))}
		add(fmt.Sprintf("random-%d", i), random(n, stride), random(m, stride), cs[rng.Intn(len(cs))])
	}
	return calls
}

// TestScratchReuseInvisible drives the fused kernel through one scratch
// over scratchSequence and pins every result bit for bit to the same
// call on a fresh scratch, to the unfused oracle and to the exported
// ConvolveCoarsen, which takes a pooled scratch. After every call the
// shared accumulator must be all zero again, and after the whole
// sequence every result must still hold its bits: none may share
// memory with the scratch that later calls overwrote.
func TestScratchReuseInvisible(t *testing.T) {
	shared := new(scratch)
	calls := scratchSequence()
	results := make([]*Dist, len(calls))
	for k, tc := range calls {
		got := shared.convolveCoarsen(tc.a, tc.b, tc.c)
		results[k] = got
		requireZeroAccumulator(t, tc.name, shared)
		requireSameDist(t, tc.name+" vs fresh scratch", got, new(scratch).convolveCoarsen(tc.a, tc.b, tc.c))
		requireSameDist(t, tc.name+" vs oracle", got, oracleConvolveCoarsen(tc.a, tc.b, tc.c))
		if !tc.c.spanCap {
			requireSameDist(t, tc.name+" vs ConvolveCoarsen", got, tc.a.ConvolveCoarsen(tc.b, tc.c.target, tc.c.strategy))
			requireSameDist(t, tc.name+" vs Convolve+CoarsenToWith", got,
				tc.a.Convolve(tc.b).CoarsenToWith(tc.c.target, tc.c.strategy))
		}
	}
	for k, tc := range calls {
		requireSameDist(t, tc.name+" after the sequence", results[k], oracleConvolveCoarsen(tc.a, tc.b, tc.c))
	}
	if cap(shared.acc) == 0 || cap(shared.values) == 0 || cap(shared.low) == 0 || cap(shared.seg) == 0 {
		t.Fatalf("corpus bug: the sequence left an array unused: acc %d, read-out %d, low %d, segment %d",
			cap(shared.acc), cap(shared.values), cap(shared.low), cap(shared.seg))
	}
}

// TestScratchDropsOversizedAccumulator checks that a dense call whose
// accumulator exceeds maxPooledLen cells runs on an array of its own:
// the scratch keeps its smaller accumulator, and the result is the same.
func TestScratchDropsOversizedAccumulator(t *testing.T) {
	s := new(scratch)
	small := fromSorted([]int64{0, 1, 3}, []float64{0.5, 0.25, 0.25})
	s.convolveCoarsen(small, small, coarsening{})
	kept := cap(s.acc)
	// 400 atoms over [0, 600_000] with a unit gap, twice: a gcd of 1 and
	// about 1.2M cells, under denseLimit's 1.28M for 160k pairs.
	spread := func(seed int64) *Dist {
		rng := rand.New(rand.NewSource(seed))
		vs := make([]int64, 400)
		ps := make([]float64, 400)
		for i := range vs {
			vs[i] = int64(i) * 1500
			ps[i] = 1.0 / 400
		}
		vs[1] = 1
		vs[399] += int64(rng.Intn(10))
		return fromSorted(vs, ps)
	}
	a, b := spread(1), spread(2)
	_, p := a.convolveSparse(b)
	if p.cells <= maxPooledLen || p.g != 1 {
		t.Fatalf("corpus bug: %d cells on grid g = %d, want a dense call over %d cells", p.cells, p.g, maxPooledLen)
	}
	got := s.convolveCoarsen(a, b, coarsening{})
	if cap(s.acc) != kept {
		t.Fatalf("the scratch kept a %d-cell accumulator, want its %d-cell one", cap(s.acc), kept)
	}
	requireZeroAccumulator(t, "oversized call", s)
	requireSameDist(t, "oversized call", got, naiveConvolve(a, b))
}

// TestConvolveAllConcurrentPool runs the same parallel reductions from
// four goroutines at once, so their workers take, use and return
// pooled scratches concurrently, and pins each result bit for bit to
// the serial reduction. CI runs it under the race detector repeatedly.
func TestConvolveAllConcurrentPool(t *testing.T) {
	ds := benchShapeDists(t, 64)
	for _, strategy := range []CoarsenStrategy{CoarsenLeastError, CoarsenKeepHeaviest} {
		want := ConvolveAllWith(ds, 512, 1, strategy)
		got := make([]*Dist, 4)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[g] = ConvolveAllWith(ds, 512, 4, strategy)
			}()
		}
		wg.Wait()
		for g, d := range got {
			requireSameDist(t, fmt.Sprintf("%v goroutine %d", strategy, g), d, want)
		}
	}
}

// TestConvolveAllHugeWorkers checks that the reduction sizes its
// workers by its merge nodes, not by workers, which a caller may pass
// unclamped (a serve batch request's workers field reaches it): at
// math.MaxInt the reduction must not panic, and it matches the serial
// result. par.ForEach clamps the workers of each depth to its nodes.
func TestConvolveAllHugeWorkers(t *testing.T) {
	ds := benchShapeDists(t, 64)
	want := ConvolveAllWith(ds, 512, 1, CoarsenLeastError)
	requireSameDist(t, "workers math.MaxInt", ConvolveAllWith(ds, 512, math.MaxInt, CoarsenLeastError), want)
}
