// Benchmark harness regenerating every data figure of the paper's
// evaluation (Section IV). Each BenchmarkFigN measures the cost of
// recomputing that figure's data and reports the headline numbers as
// custom metrics, so `go test -bench=. -benchmem` both exercises and
// documents the reproduction:
//
//	BenchmarkFig1  — Figure 1: FMM example + penalty convolution
//	BenchmarkFig3  — Figure 3: adpcm exceedance curves (3 mechanisms)
//	BenchmarkFig4  — Figure 4: 25-benchmark normalized pWCET sweep,
//	                 reporting the average/minimum gains of Section IV.B
//
// The remaining benchmarks profile the pipeline stages (cache analysis,
// IPET, FMM, convolution, simulation) on representative inputs.
package pwcet_test

import (
	"fmt"
	"math/rand"
	"testing"

	pwcet "repro"
	"repro/internal/absint"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/ipet"
	"repro/internal/malardalen"
)

// BenchmarkFig1 regenerates Figure 1: the per-set penalty distributions
// of the paper's illustrative 4-set FMM and their convolution.
func BenchmarkFig1(b *testing.B) {
	fmm := [][]int64{{0, 10, 130}, {0, 14, 164}, {0, 13, 193}, {0, 20, 240}}
	pbf := fault.PBF(1e-4, 128)
	pwf := fault.PWF(2, pbf)
	var support int
	for i := 0; i < b.N; i++ {
		total := dist.Degenerate(0)
		for _, row := range fmm {
			pts := make([]dist.Point, len(row))
			for f, v := range row {
				pts[f] = dist.Point{Value: v, Prob: pwf[f]}
			}
			d, err := dist.New(pts)
			if err != nil {
				b.Fatal(err)
			}
			total = total.Convolve(d)
		}
		support = total.Len()
	}
	b.ReportMetric(float64(support), "support-points")
}

// BenchmarkFig3 regenerates Figure 3: the exceedance curves of adpcm
// under no protection, SRB and RW at pfail = 1e-4.
func BenchmarkFig3(b *testing.B) {
	p := malardalen.MustGet("adpcm")
	var none, rw, srb *core.Result
	for i := 0; i < b.N; i++ {
		results, err := pwcet.AnalyzeAll(p, pwcet.Query{Pfail: 1e-4})
		if err != nil {
			b.Fatal(err)
		}
		none, rw, srb = results[pwcet.None], results[pwcet.RW], results[pwcet.SRB]
		// The curves themselves are part of the figure.
		_ = none.ExceedanceCurve()
		_ = rw.ExceedanceCurve()
		_ = srb.ExceedanceCurve()
	}
	b.ReportMetric(float64(none.PWCET), "pwcet-none")
	b.ReportMetric(float64(srb.PWCET), "pwcet-srb")
	b.ReportMetric(float64(rw.PWCET), "pwcet-rw")
	b.ReportMetric(float64(none.FaultFreeWCET), "wcet-fault-free")
}

// BenchmarkFig4 regenerates Figure 4 and the Section IV.B gain summary:
// pWCET at 1e-15 for all 25 benchmarks under the three architectures.
// Paper reference points: average gain RW 48%, SRB 40%; minimum gain RW
// 26% (fft), SRB 25% (ud).
func BenchmarkFig4(b *testing.B) {
	names := pwcet.Benchmarks()
	var avgRW, avgSRB, minRW, minSRB float64
	for i := 0; i < b.N; i++ {
		var sumRW, sumSRB float64
		minRW, minSRB = 1, 1
		for _, name := range names {
			p := malardalen.MustGet(name)
			results, err := pwcet.AnalyzeAll(p, pwcet.Query{Pfail: 1e-4})
			if err != nil {
				b.Fatal(err)
			}
			gRW := pwcet.Gain(results[pwcet.None], results[pwcet.RW])
			gSRB := pwcet.Gain(results[pwcet.None], results[pwcet.SRB])
			sumRW += gRW
			sumSRB += gSRB
			if gRW < minRW {
				minRW = gRW
			}
			if gSRB < minSRB {
				minSRB = gSRB
			}
		}
		avgRW = sumRW / float64(len(names))
		avgSRB = sumSRB / float64(len(names))
	}
	b.ReportMetric(100*avgRW, "avg-gain-rw-%")
	b.ReportMetric(100*avgSRB, "avg-gain-srb-%")
	b.ReportMetric(100*minRW, "min-gain-rw-%")
	b.ReportMetric(100*minSRB, "min-gain-srb-%")
}

// BenchmarkCacheAnalysis profiles the Must/May/Persistence fixpoints on
// the largest benchmark (nsichneu).
func BenchmarkCacheAnalysis(b *testing.B) {
	p := malardalen.MustGet("nsichneu")
	cfg := cache.PaperConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := absint.New(p, cfg)
		_ = a.ClassifyAll()
	}
}

// BenchmarkIPETWCET profiles the fault-free WCET ILP on adpcm.
func BenchmarkIPETWCET(b *testing.B) {
	p := malardalen.MustGet("adpcm")
	cfg := cache.PaperConfig()
	a := absint.New(p, cfg)
	classes := a.ClassifyAll()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, err := ipet.NewSystem(p)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ipet.WCETCombined(sys, a, classes, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFMM profiles the full fault-miss-map computation (S*W warm
// ILP solves plus one classification fixpoint per set) on adpcm. Workers is
// pinned to 1 so ns/op and allocs/op are independent of the runner's
// core count — the committed baseline must gate on any machine;
// BenchmarkComputeFMMWorkers covers the parallel scaling.
func BenchmarkFMM(b *testing.B) {
	p := malardalen.MustGet("adpcm")
	cfg := cache.PaperConfig()
	a := absint.New(p, cfg)
	classes := a.ClassifyAll()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, err := ipet.NewSystem(p)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ipet.ComputeFMM(sys, a, classes, ipet.FMMOptions{Mechanism: cache.MechanismNone, Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFMM8Way is BenchmarkFMM on a 64-set 8-way cache, where each
// set's seven degraded columns read one shared fixpoint
// (Analyzer.ClassifySetByAssocInto) instead of running seven. Workers
// is pinned to 1 like BenchmarkFMM.
func BenchmarkFMM8Way(b *testing.B) {
	p := malardalen.MustGet("adpcm")
	cfg := cache.PaperConfig()
	cfg.Sets, cfg.Ways = 64, 8
	a := absint.New(p, cfg)
	classes := a.ClassifyAll()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, err := ipet.NewSystem(p)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ipet.ComputeFMM(sys, a, classes, ipet.FMMOptions{Mechanism: cache.MechanismNone, Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFMMReference is BenchmarkFMM on the retained reference
// implementations — the dense uncompacted simplex and the map-based
// abstract domain — i.e. the hot path with compaction, sparse pivoting,
// dirty-row restores and the per-set index all off. Recording both
// keeps the optimized-vs-reference gap visible in every baseline (the
// results are byte-identical; only the cost differs). Workers pinned
// to 1 like BenchmarkFMM, for machine-independent metrics.
func BenchmarkFMMReference(b *testing.B) {
	p := malardalen.MustGet("adpcm")
	cfg := cache.PaperConfig()
	a := absint.NewReference(p, cfg)
	classes := a.ClassifyAll()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, err := ipet.NewReferenceSystem(p)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ipet.ComputeFMM(sys, a, classes, ipet.FMMOptions{Mechanism: cache.MechanismNone, Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkComputeFMMWorkers profiles the parallel fault-miss-map on
// adpcm (16 sets x 4 solves) across worker counts. The acceptance bar
// of the parallel engine: on multi-core hardware workers=4 is >= 2x
// faster than workers=1, while the FMM stays byte-identical (asserted
// by TestComputeFMMWorkersByteIdentical and the core equivalence
// tests).
func BenchmarkComputeFMMWorkers(b *testing.B) {
	p := malardalen.MustGet("adpcm")
	cfg := cache.PaperConfig()
	a := absint.New(p, cfg)
	classes := a.ClassifyAll()
	sys, err := ipet.NewSystem(p)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ipet.ComputeFMM(sys, a, classes, ipet.FMMOptions{
					Mechanism: cache.MechanismNone,
					Workers:   workers,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchPerSetDists builds per-set penalty distributions for a
// configuration with the given set count (the convolution fold input).
// Penalty values share the miss-penalty granularity and a realistic
// per-set miss range (like FMM-derived penalties), which keeps the
// convolutions on the dense accumulation path as in the pipeline.
func benchPerSetDists(b *testing.B, sets int) []*dist.Dist {
	b.Helper()
	cfg := cache.PaperConfig()
	pbf := fault.PBF(1e-4, cfg.BlockBits())
	pwf := fault.PWF(cfg.Ways, pbf)
	rng := rand.New(rand.NewSource(1))
	perSet := make([]*dist.Dist, sets)
	for s := range perSet {
		pts := make([]dist.Point, len(pwf))
		v := int64(0)
		for f := range pts {
			pts[f] = dist.Point{Value: v * 100, Prob: pwf[f]}
			v += int64(1 + rng.Intn(25))
		}
		d, err := dist.New(pts)
		if err != nil {
			b.Fatal(err)
		}
		perSet[s] = d
	}
	return perSet
}

// BenchmarkConvolveAllWorkers profiles the per-set penalty reduction
// on a 256-set configuration across worker counts: workers bounds the
// independent merge nodes convolving concurrently, each running one
// plain Convolve, so only cores beyond the first can make workers > 1
// faster (BenchmarkConvolution measures the 16-set sequential fold).
func BenchmarkConvolveAllWorkers(b *testing.B) {
	perSet := benchPerSetDists(b, 256)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				total := dist.ConvolveAllWith(perSet, core.DefaultMaxSupport, workers, dist.CoarsenLeastError)
				_ = total.QuantileExceedance(1e-15)
			}
		})
	}
}

// BenchmarkAnalyzeWorkers profiles the end-to-end analysis (adpcm,
// none — the mechanism with the most ILP work) across worker counts.
func BenchmarkAnalyzeWorkers(b *testing.B) {
	p := malardalen.MustGet("adpcm")
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := analyzeFresh(p, workers, pwcet.Query{Pfail: 1e-4, Mechanism: pwcet.None}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// analyzeFresh runs one query on a throwaway engine with the given
// worker bound: the work of one pwcet.Analyze call, but with the
// parallelism pinned instead of GOMAXPROCS.
func analyzeFresh(p *pwcet.Program, workers int, q pwcet.Query) (*pwcet.Result, error) {
	eng, err := pwcet.NewEngine(p, pwcet.EngineOptions{Workers: workers})
	if err != nil {
		return nil, err
	}
	return eng.Analyze(q)
}

// sweepPfails is the 10-point pfail sweep the session-reuse benchmarks
// share (the resilience-roadmap range of the faultsweep example).
var sweepPfails = []float64{6.1e-13, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 2.6e-4, 5e-4, 1e-3}

// BenchmarkPfailSweepOneShot is the pre-session baseline: a 10-point
// pfail sweep on the paper cache as 10 independent Analyze calls, each
// re-running the fixpoints, the IPET system, the fault-free WCET and
// every per-set FMM ILP solve.
func BenchmarkPfailSweepOneShot(b *testing.B) {
	p := malardalen.MustGet("adpcm")
	for i := 0; i < b.N; i++ {
		for _, pf := range sweepPfails {
			if _, err := analyzeFresh(p, 1, pwcet.Query{Pfail: pf, Mechanism: pwcet.SRB}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkPfailSweepEngine is the same 10-point sweep as one
// Engine.AnalyzeBatch (including the engine construction): the shared
// artifacts are computed once and each sweep point only re-weights
// probabilities and convolves. The acceptance bar of the session
// redesign: at least 3x faster than BenchmarkPfailSweepOneShot, with
// byte-identical results (asserted by TestEnginePfailSweepByteIdentical
// in internal/core).
func BenchmarkPfailSweepEngine(b *testing.B) {
	p := malardalen.MustGet("adpcm")
	queries := make([]pwcet.Query, len(sweepPfails))
	for i, pf := range sweepPfails {
		queries[i] = pwcet.Query{Pfail: pf, Mechanism: pwcet.SRB}
	}
	for i := 0; i < b.N; i++ {
		eng, err := pwcet.NewEngine(p, pwcet.EngineOptions{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.AnalyzeBatch(queries); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchGridEngine profiles the full evaluation grid of one
// benchmark — 10 pfail points x 3 mechanisms — as a single engine
// batch, the cmd/pwcet -batch workload.
func BenchmarkBatchGridEngine(b *testing.B) {
	p := malardalen.MustGet("adpcm")
	var queries []pwcet.Query
	for _, pf := range sweepPfails {
		for _, m := range []pwcet.Mechanism{pwcet.None, pwcet.RW, pwcet.SRB} {
			queries = append(queries, pwcet.Query{Pfail: pf, Mechanism: m})
		}
	}
	for i := 0; i < b.N; i++ {
		eng, err := pwcet.NewEngine(p, pwcet.EngineOptions{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.AnalyzeBatch(queries); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConvolution profiles the 16-set penalty convolution with
// coarsening, the final stage of the pipeline.
func BenchmarkConvolution(b *testing.B) {
	cfg := cache.PaperConfig()
	pbf := fault.PBF(1e-4, cfg.BlockBits())
	pwf := fault.PWF(cfg.Ways, pbf)
	rng := rand.New(rand.NewSource(1))
	perSet := make([]*dist.Dist, cfg.Sets)
	for s := range perSet {
		pts := make([]dist.Point, len(pwf))
		v := int64(0)
		for f := range pts {
			pts[f] = dist.Point{Value: v * 100, Prob: pwf[f]}
			v += int64(1 + rng.Intn(200))
		}
		d, err := dist.New(pts)
		if err != nil {
			b.Fatal(err)
		}
		perSet[s] = d
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total := dist.Degenerate(0)
		for _, d := range perSet {
			total = total.Convolve(d).CoarsenToWith(core.DefaultMaxSupport, dist.CoarsenLeastError)
		}
		_ = total.QuantileExceedance(1e-15)
	}
}

// BenchmarkSimulation profiles the concrete cache simulator on a full
// adpcm trace (the validation substrate).
func BenchmarkSimulation(b *testing.B) {
	p := malardalen.MustGet("adpcm")
	cfg := cache.PaperConfig()
	first := func(_ int, succs []int) int { return succs[0] }
	tr, err := p.Trace(first, 50_000_000)
	if err != nil {
		b.Fatal(err)
	}
	fm := cache.NewFaultMap(cfg.Sets, cfg.Ways)
	fm[3][0], fm[3][1], fm[3][2], fm[3][3] = true, true, true, true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := cache.NewSim(cfg, cache.MechanismSRB, fm)
		s.AccessAll(tr)
	}
	b.SetBytes(int64(len(tr) * 4))
}

// BenchmarkAnalyzeSingle profiles one end-to-end analysis (matmult, RW).
func BenchmarkAnalyzeSingle(b *testing.B) {
	p := malardalen.MustGet("matmult")
	for i := 0; i < b.N; i++ {
		if _, err := pwcet.Analyze(p, pwcet.Query{Pfail: 1e-4, Mechanism: pwcet.RW}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyze256 is the end-to-end analysis on a 256-set cache
// (16KB, 4-way): the configuration whose penalty reduction folds 256
// per-set distributions and therefore exercises the monoid-power /
// in-tree-coarsening ConvolveAllWith path inside the full pipeline
// (serial, so the gate tracks algorithmic cost, not core count).
func BenchmarkAnalyze256(b *testing.B) {
	p := malardalen.MustGet("adpcm")
	cfg := cache.PaperConfig()
	cfg.Sets = 256
	for i := 0; i < b.N; i++ {
		if _, err := analyzeFresh(p, 1, pwcet.Query{Cache: cfg, Pfail: 1e-4, Mechanism: pwcet.None}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzeTransient256 is the pure-SEU pipeline on the 256-set
// cache: per-set hit-bound ILPs instead of the FMM, then the binomial
// materialization and convolution of 256 extra-miss distributions
// (serial, for the same algorithmic-cost tracking as Analyze256).
func BenchmarkAnalyzeTransient256(b *testing.B) {
	p := malardalen.MustGet("adpcm")
	cfg := cache.PaperConfig()
	cfg.Sets = 256
	for i := 0; i < b.N; i++ {
		if _, err := analyzeFresh(p, 1, pwcet.Query{Cache: cfg, Scenario: pwcet.Transient{Lambda: 1e-9}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzeCombined256 runs both fault stages end to end on the
// 256-set cache: the full permanent FMM/penalty machinery plus the
// transient hit-bound and binomial stage folded on top — the cost
// ceiling of the scenario layer.
func BenchmarkAnalyzeCombined256(b *testing.B) {
	p := malardalen.MustGet("adpcm")
	cfg := cache.PaperConfig()
	cfg.Sets = 256
	for i := 0; i < b.N; i++ {
		q := pwcet.Query{Cache: cfg, Scenario: pwcet.Combined{Pfail: 1e-4, Lambda: 1e-9}}
		if _, err := analyzeFresh(p, 1, q); err != nil {
			b.Fatal(err)
		}
	}
}
