// Command paperfigs regenerates the figures of the paper's evaluation
// (Section IV) as text tables and CSV series:
//
//	paperfigs -fig 1      Figure 1: FMM example + penalty convolution
//	paperfigs -fig 3      Figure 3: adpcm exceedance curves (CSV)
//	paperfigs -fig 4      Figure 4: normalized pWCETs, categories, gains
//	paperfigs -fig gains  Section IV.B: average/min gain summary
//	paperfigs -fig all    everything above
//
// Flags -pfail and -target change the fault probability (default 1e-4)
// and the exceedance target (default 1e-15); -workers bounds the
// goroutines used across benchmarks and inside each analysis
// (0 = GOMAXPROCS). The figures are identical for every worker count.
// -coarsen selects the support-cap coarsening strategy (least-error,
// the tail-faithful default, or keep-heaviest for the legacy figures);
// at the paper's configurations the cap never binds, so both
// strategies regenerate identical figures.
//
// Every figure runs on the session API: one pwcet.Engine per benchmark
// evaluates its whole query grid (mechanisms, pfail points) with the
// cache fixpoints, IPET system and per-set FMM solves shared across
// sweep points instead of recomputed per configuration.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	pwcet "repro"
	"repro/internal/dist"
	"repro/internal/par"
	"repro/internal/report"
)

// workers is the -workers flag: the bound on concurrent benchmark
// analyses and on each analysis's internal per-set stages
// (0 = GOMAXPROCS).
var workers int

// coarsen is the resolved -coarsen flag, applied to every query.
var coarsen pwcet.CoarsenStrategy

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 1, 3, 4, gains or all")
	pfail := flag.Float64("pfail", 1e-4, "per-bit permanent failure probability")
	target := flag.Float64("target", 1e-15, "target exceedance probability")
	bench := flag.String("bench", "adpcm", "benchmark for -fig 3")
	workersFlag := flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	coarsenFlag := flag.String("coarsen", "least-error", "support-cap coarsening strategy: least-error or keep-heaviest")
	flag.Parse()
	if *workersFlag < 0 {
		fmt.Fprintf(os.Stderr, "paperfigs: -workers %d is negative\n", *workersFlag)
		os.Exit(2)
	}
	workers = *workersFlag
	var err error
	if coarsen, err = pwcet.ParseCoarsenStrategy(*coarsenFlag); err != nil {
		fmt.Fprintf(os.Stderr, "paperfigs: %v\n", err)
		os.Exit(2)
	}

	switch *fig {
	case "1":
		fig1()
	case "3":
		fig3(*bench, *pfail, *target)
	case "4":
		fig4(*pfail, *target, true)
	case "gains":
		fig4(*pfail, *target, false)
	case "motivation":
		motivation(*bench, *target)
	case "all":
		fig1()
		fig3(*bench, *pfail, *target)
		fig4(*pfail, *target, true)
		motivation(*bench, *target)
	default:
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *fig)
		os.Exit(2)
	}
}

// motivation regenerates the observation the paper builds on (from
// Hardy & Puaut, RTS 2015 — its reference [1], summarized in the
// introduction): unprotected pWCET estimates "increase rapidly with the
// probability of faults", and the reliability mechanisms flatten that
// growth.
func motivation(name string, target float64) {
	fmt.Printf("=== Motivation ([1]): pWCET growth with pfail for %s, target %g ===\n", name, target)
	p, err := pwcet.Benchmark(name)
	if err != nil {
		fatal(err)
	}
	// One engine, one batch: the 6x3 grid shares every fixpoint and ILP
	// solve; each point only re-weights probabilities and convolves.
	eng, err := pwcet.NewEngine(p, pwcet.EngineOptions{Workers: workers})
	if err != nil {
		fatal(err)
	}
	pfails := []float64{1e-7, 1e-6, 1e-5, 1e-4, 3e-4, 1e-3}
	mechs := []pwcet.Mechanism{pwcet.None, pwcet.SRB, pwcet.RW}
	var queries []pwcet.Query
	for _, pf := range pfails {
		for _, m := range mechs {
			queries = append(queries, pwcet.Query{Pfail: pf, Mechanism: m, TargetExceedance: target, Coarsen: coarsen})
		}
	}
	results, err := eng.AnalyzeBatch(queries)
	if err != nil {
		fatal(err)
	}
	rows := [][]string{}
	for i, pf := range pfails {
		none, srb, rw := results[3*i], results[3*i+1], results[3*i+2]
		rows = append(rows, []string{
			fmt.Sprintf("%.0e", pf),
			fmt.Sprintf("%.3f", norm(none.PWCET, none.FaultFreeWCET)),
			fmt.Sprintf("%.3f", norm(srb.PWCET, none.FaultFreeWCET)),
			fmt.Sprintf("%.3f", norm(rw.PWCET, none.FaultFreeWCET)),
		})
	}
	if err := report.Table(os.Stdout, []string{"pfail", "none/ff", "srb/ff", "rw/ff"}, rows); err != nil {
		fatal(err)
	}
	fmt.Println()
}

// fig1 reproduces Figure 1 of the paper: the example fault miss map and
// the convolution of the first two sets' penalty distributions. The FMM
// values are the figure's own (a 4-set, 2-way illustration).
func fig1() {
	fmt.Println("=== Figure 1: fault miss map example and penalty convolution ===")
	fmm := [][]int64{ // [set][faulty blocks] -> fault-induced misses
		{0, 10, 130},
		{0, 14, 164},
		{0, 13, 193},
		{0, 20, 240},
	}
	const ways = 2
	pbf := pwcet.PBF(1e-4, 128)
	// pwf per equation 2 for W = 2.
	pwf := []float64{(1 - pbf) * (1 - pbf), 2 * pbf * (1 - pbf), pbf * pbf}

	fmt.Println("FMM (misses):        1 faulty   2 faulty")
	for s, row := range fmm {
		fmt.Printf("  set %d              %8d   %8d\n", s, row[1], row[2])
	}
	fmt.Printf("pwf(0)=%.6g pwf(1)=%.6g pwf(2)=%.6g\n", pwf[0], pwf[1], pwf[2])

	perSet := make([]*pwcet.Dist, len(fmm))
	for s, row := range fmm {
		pts := make([]pwcet.Point, ways+1)
		for f := 0; f <= ways; f++ {
			pts[f] = pwcet.Point{Value: row[f], Prob: pwf[f]}
		}
		d, err := dist.New(pts)
		if err != nil {
			fatal(err)
		}
		perSet[s] = d
	}
	conv01 := perSet[0].Convolve(perSet[1])
	fmt.Println("\nPenalty distribution of set 0 + set 1 (Figure 1.b):")
	for _, p := range conv01.Points() {
		fmt.Printf("  penalty %4d misses   probability %.6g\n", p.Value, p.Prob)
	}
	all := conv01.Convolve(perSet[2]).Convolve(perSet[3])
	fmt.Printf("\nAll four sets convolved: %d support points, max penalty %d misses\n",
		all.Len(), all.Max())
	fmt.Printf("P(penalty > 0) = %.6g\n\n", all.CCDF(0))
}

// fig3 prints the complementary cumulative distributions of one
// benchmark (the paper uses adpcm) for the three protection levels.
func fig3(name string, pfail, target float64) {
	fmt.Printf("=== Figure 3: exceedance curves of %s (pfail=%g) ===\n", name, pfail)
	p, err := pwcet.Benchmark(name)
	if err != nil {
		fatal(err)
	}
	eng, err := pwcet.NewEngine(p, pwcet.EngineOptions{Workers: workers})
	if err != nil {
		fatal(err)
	}
	order := []pwcet.Mechanism{pwcet.None, pwcet.SRB, pwcet.RW}
	queries := make([]pwcet.Query, len(order))
	for i, m := range order {
		queries[i] = pwcet.Query{Pfail: pfail, Mechanism: m, TargetExceedance: target, Coarsen: coarsen}
	}
	batch, err := eng.AnalyzeBatch(queries)
	if err != nil {
		fatal(err)
	}
	results := make(map[pwcet.Mechanism]*pwcet.Result, len(order))
	for i, m := range order {
		results[m] = batch[i]
	}
	fmt.Println("mechanism,wcet_cycles,exceedance_probability")
	for _, m := range order {
		r := results[m]
		fmt.Printf("%s,%d,1\n", m, r.FaultFreeWCET)
		for _, pt := range r.ExceedanceCurve() {
			if pt.Prob < 1e-30 {
				fmt.Printf("%s,%d,0\n", m, pt.Value)
				break
			}
			fmt.Printf("%s,%d,%.6g\n", m, pt.Value, pt.Prob)
		}
	}
	fmt.Printf("pWCET at %g: none=%d srb=%d rw=%d fault-free=%d\n\n",
		target, results[pwcet.None].PWCET, results[pwcet.SRB].PWCET,
		results[pwcet.RW].PWCET, results[pwcet.None].FaultFreeWCET)

	plotCurves(name, results)
}

// plotCurves renders the three exceedance curves as an ASCII log-log
// chart like the paper's Figure 3 (y: exceedance probability decades,
// x: execution time).
func plotCurves(name string, results map[pwcet.Mechanism]*pwcet.Result) {
	none := results[pwcet.None]
	fmt.Printf("ASCII Figure 3 for %s:\n", name)
	report.ExceedancePlot(os.Stdout, none.FaultFreeWCET, none.PWCET, 72, -16, []report.Curve{
		{Name: "no protection", Symbol: 'n', Quantile: results[pwcet.None].PWCETAt},
		{Name: "SRB", Symbol: 's', Quantile: results[pwcet.SRB].PWCETAt},
		{Name: "RW", Symbol: 'r', Quantile: results[pwcet.RW].PWCETAt},
	})
	fmt.Println()
}

// benchRow is one benchmark's Figure 4 data.
type benchRow struct {
	name              string
	ff, none, rw, srb int64
	gainRW, gainSRB   float64
	category          int
}

// fig4 prints the normalized pWCET table of Figure 4 (and, when table is
// false, only the gain summary of Section IV.B).
func fig4(pfail, target float64, table bool) {
	rows := computeFig4(pfail, target)
	if table {
		fmt.Printf("=== Figure 4: pWCET normalized to no protection (pfail=%g, target=%g) ===\n", pfail, target)
		fmt.Println("benchmark      category  fault-free     rw    srb   none | gainRW gainSRB")
		for _, r := range rows {
			fmt.Printf("%-14s     %d      %8.3f %6.3f %6.3f  1.000 | %5.1f%%  %5.1f%%\n",
				r.name, r.category,
				norm(r.ff, r.none), norm(r.rw, r.none), norm(r.srb, r.none),
				100*r.gainRW, 100*r.gainSRB)
		}
	}
	printGainSummary(rows)
}

func computeFig4(pfail, target float64) []benchRow {
	names := pwcet.Benchmarks()
	rows := make([]benchRow, len(names))
	// The 75 analyses are independent; fan the benchmarks out over the
	// workers (each benchmark's engine stays sequential inside: the
	// outer fan-out already saturates the pool).
	err := par.ForEach(len(names), workers, func() func(int) error {
		return func(i int) error {
			p, err := pwcet.Benchmark(names[i])
			if err != nil {
				return err
			}
			eng, err := pwcet.NewEngine(p, pwcet.EngineOptions{Workers: 1})
			if err != nil {
				return err
			}
			results, err := eng.AnalyzeBatch([]pwcet.Query{
				{Pfail: pfail, Mechanism: pwcet.None, TargetExceedance: target, Coarsen: coarsen},
				{Pfail: pfail, Mechanism: pwcet.RW, TargetExceedance: target, Coarsen: coarsen},
				{Pfail: pfail, Mechanism: pwcet.SRB, TargetExceedance: target, Coarsen: coarsen},
			})
			if err != nil {
				return err
			}
			none, rw, srb := results[0], results[1], results[2]
			rows[i] = benchRow{
				name:    names[i],
				ff:      none.FaultFreeWCET,
				none:    none.PWCET,
				rw:      rw.PWCET,
				srb:     srb.PWCET,
				gainRW:  pwcet.Gain(none, rw),
				gainSRB: pwcet.Gain(none, srb),
			}
			rows[i].category = categorize(rows[i])
			return nil
		}
	})
	if err != nil {
		fatal(err)
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].category != rows[j].category {
			return rows[i].category < rows[j].category
		}
		return rows[i].name < rows[j].name
	})
	return rows
}

// categorize applies the paper's four-way classification (Section IV.B):
// 1: both mechanisms recover the fault-free WCET; 2: only RW does;
// 3: neither does but their gains are similar; 4: mixed behaviour.
func categorize(r benchRow) int {
	rwAtFF := r.rw == r.ff
	srbAtFF := r.srb == r.ff
	switch {
	case rwAtFF && srbAtFF:
		return 1
	case rwAtFF:
		return 2
	case similar(r.gainRW, r.gainSRB):
		return 3
	default:
		return 4
	}
}

// similar reports whether two gains are within 2 percentage points.
func similar(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 0.02
}

func printGainSummary(rows []benchRow) {
	var sumRW, sumSRB, minRW, minSRB float64
	minRW, minSRB = 1, 1
	var minRWName, minSRBName string
	counts := map[int]int{}
	for _, r := range rows {
		sumRW += r.gainRW
		sumSRB += r.gainSRB
		if r.gainRW < minRW {
			minRW, minRWName = r.gainRW, r.name
		}
		if r.gainSRB < minSRB {
			minSRB, minSRBName = r.gainSRB, r.name
		}
		counts[r.category]++
	}
	n := float64(len(rows))
	fmt.Printf("\n=== Gain summary (Section IV.B; paper: RW avg 48%% min 26%% fft, SRB avg 40%% min 25%% ud) ===\n")
	fmt.Printf("average gain RW : %5.1f%%   (paper: 48%%)\n", 100*sumRW/n)
	fmt.Printf("average gain SRB: %5.1f%%   (paper: 40%%)\n", 100*sumSRB/n)
	fmt.Printf("minimum gain RW : %5.1f%% on %s (paper: 26%% on fft)\n", 100*minRW, minRWName)
	fmt.Printf("minimum gain SRB: %5.1f%% on %s (paper: 25%% on ud)\n", 100*minSRB, minSRBName)
	fmt.Printf("category sizes  : 1:%d 2:%d 3:%d 4:%d\n\n", counts[1], counts[2], counts[3], counts[4])
}

func norm(v, base int64) float64 {
	if base == 0 {
		return 0
	}
	return float64(v) / float64(base)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paperfigs:", err)
	os.Exit(1)
}
