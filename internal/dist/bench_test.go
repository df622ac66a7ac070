package dist

// Perf baselines for the convolution hot path and coarsening, at the
// support sizes the analysis actually folds (the accumulator is capped
// at core.DefaultMaxSupport = 4096; 1k and 10k bracket it). The
// "xSet" benchmarks convolve a large accumulator with a 5-atom per-set
// distribution — the exact shape convolveFMM executes once per cache
// set — while "xSelf" measures the quadratic worst case.

import (
	"math"
	"math/rand"
	"testing"
)

// benchDist builds an n-atom accumulator-like distribution: values on
// the miss-penalty grid, mass geometrically concentrated at the
// bottom like a convolved fault distribution.
func benchDist(n int, seed int64) *Dist {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]Point, n)
	w := make([]float64, n)
	var sum float64
	decay := 1.0
	for i := range w {
		w[i] = decay * (rng.Float64() + 0.01)
		decay *= 0.995
		sum += w[i]
	}
	v := int64(0)
	for i := range pts {
		pts[i] = Point{Value: v, Prob: w[i] / sum}
		v += 100 * int64(1+rng.Intn(3))
	}
	d, err := New(pts)
	if err != nil {
		panic(err)
	}
	return d
}

// benchSetDist is a 5-atom per-set penalty distribution (4-way cache:
// f = 0..4 faulty ways) with the paper's skew.
func benchSetDist() *Dist {
	d, err := New([]Point{
		{0, 0.95}, {800, 0.04}, {2100, 0.009}, {3600, 0.0009}, {5200, 0.0001},
	})
	if err != nil {
		panic(err)
	}
	return d
}

func benchmarkConvolveSet(b *testing.B, n int) {
	acc := benchDist(n, 11)
	set := benchSetDist()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = acc.Convolve(set)
	}
}

func BenchmarkConvolve1kxSet(b *testing.B)  { benchmarkConvolveSet(b, 1_000) }
func BenchmarkConvolve10kxSet(b *testing.B) { benchmarkConvolveSet(b, 10_000) }

func BenchmarkConvolve1kxSelf(b *testing.B) {
	d := benchDist(1_000, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.Convolve(d)
	}
}

// benchWideDist builds an n-atom distribution whose values spread far
// beyond maxDenseSpan, forcing Convolve onto the wide-span k-way-merge
// path (the shape of the high levels of ConvolveAllWith's merge tree).
func benchWideDist(n int, seed int64) *Dist {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]Point, n)
	v := int64(0)
	for i := range pts {
		pts[i] = Point{Value: v, Prob: 1}
		v += int64(1 + rng.Intn(1<<24))
	}
	for i := range pts {
		pts[i].Prob = 1 / float64(n)
	}
	d, err := New(pts)
	if err != nil {
		panic(err)
	}
	return d
}

// BenchmarkConvolveWideSpan measures the wide-span convolution path
// that used to materialize and sort all n·m pairs (the sort-bound
// stage of high ConvolveAllWith tree levels) and is now a k-way heap
// merge.
func BenchmarkConvolveWideSpan(b *testing.B) {
	x := benchWideDist(2_000, 14)
	y := benchWideDist(2_000, 15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.Convolve(y)
	}
}

// benchTailDist builds an n-atom distribution on the stride-100 grid
// whose masses fall geometrically from the bottom atom to about 1e-320
// at the top: the shape of the permanent and transient penalty
// distributions that the combined fold convolves when the pWCET is
// read at a 1e-15 exceedance on a 256-set cache.
func benchTailDist(n int, seed int64) *Dist {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]Point, n)
	step := math.Log(1e-320) / float64(n-1)
	var sum float64
	v := int64(0)
	for i := range pts {
		w := math.Exp(float64(i)*step) * (0.5 + rng.Float64())
		pts[i] = Point{Value: v, Prob: w}
		sum += w
		v += 100 * int64(1+rng.Intn(3))
	}
	for i := range pts {
		pts[i].Prob /= sum
	}
	d, err := New(pts)
	if err != nil {
		panic(err)
	}
	return d
}

// BenchmarkConvolveDeepTail measures the dense kernel on the combined
// fold's shape: about 5% of the pairs have products that may be
// subnormal, 45% round to +0 and are skipped, and the rest are normal.
func BenchmarkConvolveDeepTail(b *testing.B) {
	x := benchTailDist(4096, 16)
	y := benchTailDist(4096, 17)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.Convolve(y)
	}
}

// BenchmarkMultiplyAdd measures the cost model behind the dense
// kernel's product classes and its segment on 1024-element loops
// row[j] += p·q[j]: products that are normal, nonzero subnormal or
// round to +0, adds with subnormal operands and results, the
// subnormal products again from addTinyProducts, and the normal
// products again as one 1024-cell segment (axpy) and as 1024 one-cell
// segments, each with the AVX2 assembly and with the Go loop. The
// "normal" loop is the scatter the segment replaces, so the segment
// rows give the planner's cost per cell c and the one-cell rows its
// cost per call k (segmentCosts). README ("Subnormal products in
// software" and "The segment: normal products in AVX2") sums up the
// results, and docs/perf-history.md lists them.
func BenchmarkMultiplyAdd(b *testing.B) {
	const n = 1024
	off := make([]int, n)
	for j := range off {
		off[j] = j
	}
	fill := func(x float64) []float64 {
		q := make([]float64, n)
		for j := range q {
			q[j] = x * (1 + float64(j)/n)
		}
		return q
	}
	hardware := func(row []float64, p float64, q []float64) {
		for j, oj := range off {
			row[oj] += float64(p * q[j])
		}
	}
	segment := func(row []float64, p float64, q []float64) {
		axpy(row, q, p)
	}
	oneCellSegments := func(row []float64, p float64, q []float64) {
		for j := range q {
			axpy(row[j:], q[j:j+1], p)
		}
	}
	subnormalRow := fill(3e-310)
	cases := []struct {
		name string
		avx2 bool // the axpy cases: with AVX2 (or with the Go loop)
		p    float64
		q    []float64
		loop func(row []float64, p float64, q []float64)
	}{
		{"normal", false, 0.5, fill(1e-10), hardware},
		{"subnormal-result", false, 1e-160, fill(1e-150), hardware},
		{"zero-result", false, 1e-200, fill(1e-200), hardware},
		{"subnormal-operand-zero-result", false, 1e-100, fill(5e-310), hardware},
		{"subnormal-add", false, 0, fill(1e-312), func(row []float64, _ float64, q []float64) {
			copy(row, subnormalRow) // keep every sum subnormal
			for j, oj := range off {
				row[oj] += q[j]
			}
		}},
		{"software-subnormal-result", false, 1e-160, fill(1e-150), func(row []float64, p float64, q []float64) {
			addTinyProducts(row, off, q, p)
		}},
		{"segment-avx2", true, 0.5, fill(1e-10), segment},
		{"segment-go", false, 0.5, fill(1e-10), segment},
		{"one-cell-segments-avx2", true, 0.5, fill(1e-10), oneCellSegments},
		{"one-cell-segments-go", false, 0.5, fill(1e-10), oneCellSegments},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			if c.avx2 && !hasAVX2() {
				b.Skip("the CPU has no AVX2")
			}
			setAVX2(b, c.avx2)
			row := make([]float64, n)
			for b.Loop() {
				c.loop(row, c.p, c.q)
			}
		})
	}
}

// BenchmarkConvolveAllEqualInputs is the monoid fast path in
// isolation: 256 identical per-set distributions, which class
// detection collapses to a single shared squaring chain (8 unique
// convolutions) instead of 255.
func BenchmarkConvolveAllEqualInputs(b *testing.B) {
	ds := make([]*Dist, 256)
	for i := range ds {
		ds[i] = benchSetDist()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total := ConvolveAllWith(ds, 4096, 1, CoarsenLeastError)
		_ = total.QuantileExceedance(1e-15)
	}
}

func benchmarkCoarsenTo(b *testing.B, n, maxSupport int, strategy CoarsenStrategy) {
	d := benchDist(n, 13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.CoarsenToWith(maxSupport, strategy)
	}
}

func BenchmarkCoarsenTo1k(b *testing.B)  { benchmarkCoarsenTo(b, 1_000, 256, CoarsenLeastError) }
func BenchmarkCoarsenTo10k(b *testing.B) { benchmarkCoarsenTo(b, 10_000, 4096, CoarsenLeastError) }
func BenchmarkCoarsenKeepHeaviest10k(b *testing.B) {
	benchmarkCoarsenTo(b, 10_000, 4096, CoarsenKeepHeaviest)
}

// BenchmarkCoarsenDeepTail coarsens the combined fold's output, the
// convolution of two deep-tailed 4096-atom operands (the shape
// BenchmarkConvolveDeepTail convolves), back to the 4096-atom cap.
func BenchmarkCoarsenDeepTail(b *testing.B) {
	d := benchTailDist(4096, 16).Convolve(benchTailDist(4096, 17))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.CoarsenTo(4096)
	}
}

// BenchmarkCoarsenChain coarsens to 4096 atoms a 45k-atom stride-100
// support whose merge costs rise monotonically from left to right.
// Such a chain has one local minimum at a time, so its merges cascade
// one after another: the most phase-hungry shape known for the
// least-error engine.
func BenchmarkCoarsenChain(b *testing.B) {
	const n = 45_000
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{Value: 100 * int64(i), Prob: float64(i+1) / (n * (n + 1) / 2)}
	}
	d, err := New(pts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.CoarsenTo(4096)
	}
}
