// Command pwcet analyzes benchmarks of the Mälardalen-like suite and
// reports their probabilistic WCET under the paper's reliability
// mechanisms. Single-benchmark analyses and whole-suite summaries run
// on a shared-work analysis session (pwcet.Engine); -batch runs a full
// sweep specification (benchmarks x pfails x mechanisms x targets)
// through Engine.AnalyzeBatch.
//
//	pwcet -list
//	pwcet -all
//	pwcet -bench adpcm
//	pwcet -bench matmult -mech all -pfail 1e-3
//	pwcet -bench crc -fault-model transient -lambda 1e-10
//	pwcet -bench crc -fault-model combined -pfail 1e-4 -lambda 1e-10
//	pwcet -bench crc -mech srb -curve
//	pwcet -bench crc -mech srb -curve -json
//	pwcet -bench bs -mech rw -fmm
//	pwcet -bench adpcm -classes
//	pwcet -bench fibcall -mech none -validate 200
//	pwcet -all -workers 8
//	pwcet -batch sweep.json
//	pwcet -batch sweep.json -json
//	pwcet -batch sweep.json -ndjson
//
// The -batch specification is the shared internal/batchspec JSON
// format (also accepted verbatim by the pwcetd analysis service):
//
//	{
//	  "benchmarks": ["adpcm", "crc"],          // omitted = whole suite
//	  "fault_model": "permanent",              // or "transient", "combined"
//	  "pfails": [1e-6, 1e-5, 1e-4, 1e-3],      // permanent/combined: required
//	  "lambdas": [1e-12, 1e-10],               // transient/combined: required
//	  "mechanisms": ["none", "rw", "srb"],     // omitted = all three
//	  "targets": [1e-15],                      // omitted = [1e-15]
//	  "cache": {"sets": 16, "ways": 4, "block_bytes": 16,
//	            "hit_latency": 1, "mem_latency": 100}, // omitted = paper cache
//	  "max_support": 4096,                     // omitted = default
//	  "coarsen": "least-error",                // or "keep-heaviest"; omitted = least-error
//	  "exact_convolve": false,                 // exact convolution fold (escape hatch)
//	  "workers": 0                             // 0/omitted = the -workers flag
//	}
//
// The fault_model gates the parameter axes strictly: permanent sweeps
// must not set lambdas, transient sweeps must not set pfails, combined
// sweeps must set both. The single-benchmark modes expose the same
// axis through -fault-model and -lambda.
//
// -ndjson streams one compact JSON row per line as benchmarks finish —
// byte-identical to the NDJSON stream pwcetd serves for the same spec.
//
// Each benchmark's queries share one engine: the cache fixpoints, the
// IPET system, the fault-free WCET and the per-set FMM ILP solves are
// computed once per (cache, mechanism) and reused by every sweep point.
//
// Profiling: -cpuprofile and -memprofile write pprof profiles of the
// run (the heap profile on clean exit only), so performance work on
// the analysis pipeline needs no ad-hoc harness:
//
//	pwcet -all -cpuprofile cpu.out -memprofile mem.out
//	go tool pprof cpu.out
//
// Invalid flags or flag combinations exit with status 2 after a usage
// message; analysis failures exit with status 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"text/tabwriter"
	"time"

	pwcet "repro"
	"repro/internal/batchspec"
	"repro/internal/core"
	"repro/internal/malardalen"
	"repro/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config carries the parsed and validated command line.
type config struct {
	list, all  bool
	bench      string
	batch      string
	mechs      []pwcet.Mechanism
	faultModel pwcet.ScenarioKind
	pfail      float64
	lambda     float64
	target     float64
	coarsen    pwcet.CoarsenStrategy
	workers    int
	exact      bool
	softDL     time.Duration
	jsonOut    bool
	ndjson     bool
	curve      bool
	fmm        bool
	classes    bool
	precise    bool
	validate   int
	cpuprofile string
	memprofile string
}

// query returns the analysis configuration of the command line, shared
// by -bench and -all; both set the mechanism per query. The permanent
// model keeps the legacy Pfail spelling, which keeps permanent runs
// byte-identical to the pre-scenario CLI.
func (c *config) query() pwcet.Query {
	q := pwcet.Query{TargetExceedance: c.target, Coarsen: c.coarsen, SoftDeadline: c.softDL}
	switch c.faultModel {
	case pwcet.ScenarioPermanent:
		q.Pfail = c.pfail
	case pwcet.ScenarioTransient:
		q.Scenario = pwcet.Transient{Lambda: c.lambda}
	case pwcet.ScenarioCombined:
		q.Scenario = pwcet.Combined{Pfail: c.pfail, Lambda: c.lambda}
	default:
		panic(fmt.Sprintf("pwcet: unhandled fault model %v", c.faultModel))
	}
	return q
}

// parseFlags parses and validates the command line. It returns a usage
// error (exit status 2) for anything malformed: unknown mechanism
// names, probabilities outside their domain, negative counts, or flag
// combinations that cannot be satisfied together.
func parseFlags(args []string, stderr io.Writer) (*config, error) {
	fs := flag.NewFlagSet("pwcet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	c := &config{}
	var mech string
	fs.BoolVar(&c.list, "list", false, "list available benchmarks and exit")
	fs.BoolVar(&c.all, "all", false, "analyze the whole suite and print a summary table")
	fs.StringVar(&c.bench, "bench", "", "benchmark name (see -list)")
	fs.StringVar(&c.batch, "batch", "", "JSON sweep specification file (see package doc)")
	fs.StringVar(&mech, "mech", "all", "reliability mechanism: none, rw, srb or all")
	var faultModel string
	fs.StringVar(&faultModel, "fault-model", "permanent", "fault scenario: permanent, transient or combined")
	fs.Float64Var(&c.pfail, "pfail", 1e-4, "per-bit permanent failure probability, in [0,1] (permanent and combined models)")
	fs.Float64Var(&c.lambda, "lambda", 0, "per-line per-cycle SEU rate, >= 0 (transient and combined models)")
	fs.Float64Var(&c.target, "target", 1e-15, "target exceedance probability, in (0,1)")
	var coarsen string
	fs.StringVar(&coarsen, "coarsen", "least-error", "support-cap coarsening strategy: least-error or keep-heaviest")
	fs.IntVar(&c.workers, "workers", 0, "worker goroutines for the per-set stages and batch scheduling (0 = GOMAXPROCS)")
	fs.BoolVar(&c.exact, "exact-convolve", false, "route the penalty reduction through the exact convolution fold (differential escape hatch)")
	fs.DurationVar(&c.softDL, "soft-deadline", 0, "per-query degraded-mode deadline: queries over it retry at tighter support caps and report degraded results (0 = off)")
	fs.BoolVar(&c.jsonOut, "json", false, "emit machine-readable JSON (with -bench or -batch)")
	fs.BoolVar(&c.ndjson, "ndjson", false, "with -batch: stream one compact JSON row per line (NDJSON)")
	fs.BoolVar(&c.curve, "curve", false, "print the exceedance curve")
	fs.BoolVar(&c.fmm, "fmm", false, "print the fault miss map")
	fs.BoolVar(&c.classes, "classes", false, "print the per-reference CHMC summary")
	fs.BoolVar(&c.precise, "precise", false, "enable the precise SRB analysis (mixture bound; srb only)")
	fs.IntVar(&c.validate, "validate", 0, "run Monte-Carlo validation with N fault maps")
	fs.StringVar(&c.cpuprofile, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
	fs.StringVar(&c.memprofile, "memprofile", "", "write a pprof heap profile to this file on clean exit")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	usage := func(format string, a ...any) error {
		err := fmt.Errorf(format, a...)
		fmt.Fprintf(stderr, "pwcet: %v\n", err)
		fs.Usage()
		return err
	}
	if fs.NArg() > 0 {
		return nil, usage("unexpected arguments %q", fs.Args())
	}
	if c.pfail < 0 || c.pfail > 1 || math.IsNaN(c.pfail) {
		return nil, usage("-pfail %g outside [0,1]", c.pfail)
	}
	if c.lambda < 0 || math.IsNaN(c.lambda) || math.IsInf(c.lambda, 0) {
		return nil, usage("-lambda %g must be a finite rate >= 0", c.lambda)
	}
	fm, err := pwcet.ParseScenarioKind(faultModel)
	if err != nil {
		return nil, usage("%v", err)
	}
	c.faultModel = fm
	// Each fault model owns exactly its parameter axes: an explicitly
	// set flag along a missing axis would be silently meaningless.
	if c.faultModel == pwcet.ScenarioPermanent && explicit["lambda"] {
		return nil, usage("-lambda requires -fault-model transient or combined")
	}
	if c.faultModel == pwcet.ScenarioTransient && explicit["pfail"] {
		return nil, usage("-pfail is meaningless with -fault-model transient")
	}
	if c.target <= 0 || c.target >= 1 || math.IsNaN(c.target) {
		return nil, usage("-target %g outside (0,1)", c.target)
	}
	if c.workers < 0 {
		return nil, usage("-workers %d is negative (0 means GOMAXPROCS)", c.workers)
	}
	if c.softDL < 0 {
		return nil, usage("-soft-deadline %v is negative (0 means off)", c.softDL)
	}
	if c.validate < 0 {
		return nil, usage("-validate %d is negative", c.validate)
	}
	if c.coarsen, err = pwcet.ParseCoarsenStrategy(coarsen); err != nil {
		return nil, usage("%v", err)
	}
	if mech == "all" {
		c.mechs = []pwcet.Mechanism{pwcet.None, pwcet.RW, pwcet.SRB}
	} else {
		m, err := pwcet.ParseMechanism(mech)
		if err != nil {
			return nil, usage("%v", err)
		}
		c.mechs = []pwcet.Mechanism{m}
	}

	modes := 0
	for _, set := range []bool{c.list, c.all, c.bench != "", c.batch != ""} {
		if set {
			modes++
		}
	}
	if modes > 1 {
		return nil, usage("-list, -all, -bench and -batch are mutually exclusive")
	}
	if modes == 0 {
		return nil, usage("-bench, -batch, -all or -list required")
	}
	if c.list || c.all || c.batch != "" {
		benchOnly := []struct {
			name string
			set  bool
		}{
			{"-curve", c.curve}, {"-fmm", c.fmm}, {"-classes", c.classes},
			{"-precise", c.precise}, {"-validate", c.validate > 0},
		}
		for _, f := range benchOnly {
			if f.set {
				return nil, usage("%s requires -bench", f.name)
			}
		}
		if c.jsonOut && (c.list || c.all) {
			return nil, usage("-json requires -bench or -batch")
		}
		if explicit["soft-deadline"] && (c.list || c.all) {
			// The summary tables have no column for degraded results;
			// silently dropping the flag would mislead.
			return nil, usage("-soft-deadline requires -bench or -batch")
		}
		if explicit["mech"] && c.all {
			// -all analyzes every mechanism; silently dropping the flag
			// would mislead.
			return nil, usage("-mech cannot be combined with -all (it analyzes every mechanism)")
		}
		if c.ndjson && c.batch == "" {
			return nil, usage("-ndjson requires -batch")
		}
		if c.batch != "" {
			// The sweep specification owns these axes; silently dropping
			// an explicit flag would mislead.
			for _, name := range []string{"fault-model", "pfail", "lambda", "target", "mech", "coarsen", "exact-convolve"} {
				if explicit[name] {
					return nil, usage("-%s cannot be combined with -batch (set it in the spec)", name)
				}
			}
			if c.jsonOut && c.ndjson {
				return nil, usage("-json and -ndjson are mutually exclusive")
			}
		}
		return c, nil
	}
	if c.ndjson {
		return nil, usage("-ndjson requires -batch")
	}
	if _, err := pwcet.Benchmark(c.bench); err != nil {
		return nil, usage("%v (see -list)", err)
	}
	if c.faultModel != pwcet.ScenarioPermanent {
		// The precise SRB mixture and the Monte-Carlo validator model
		// permanent fault maps only; a pure transient run has no fault
		// miss map to print.
		if c.precise {
			return nil, usage("-precise requires the permanent fault model")
		}
		if c.validate > 0 {
			return nil, usage("-validate requires the permanent fault model")
		}
		if c.fmm && c.faultModel == pwcet.ScenarioTransient {
			return nil, usage("-fmm is meaningless with -fault-model transient (no permanent component)")
		}
	}
	if c.jsonOut {
		// The JSON report carries the analysis results and optional
		// curve; the remaining sections are text-only and would be
		// silently dropped — reject instead of misleading.
		for _, f := range []struct {
			name string
			set  bool
		}{{"-fmm", c.fmm}, {"-classes", c.classes}, {"-validate", c.validate > 0}} {
			if f.set {
				return nil, usage("%s is not available with -json", f.name)
			}
		}
	}
	return c, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	c, err := parseFlags(args, stderr)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		return 2
	}
	if c.cpuprofile != "" {
		f, err := os.Create(c.cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, "pwcet:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintln(stderr, "pwcet:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	code := dispatch(c, stdout, stderr)
	if code == 0 && c.memprofile != "" {
		if err := writeMemProfile(c.memprofile); err != nil {
			fmt.Fprintln(stderr, "pwcet:", err)
			return 1
		}
	}
	return code
}

// writeMemProfile records the post-run heap profile (after a GC, so
// retained memory — the engines' memoized artifacts — dominates over
// garbage).
func writeMemProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}

// dispatch runs the selected mode.
func dispatch(c *config, stdout, stderr io.Writer) int {
	var err error
	switch {
	case c.list:
		for _, n := range pwcet.Benchmarks() {
			p := malardalen.MustGet(n)
			fmt.Fprintf(stdout, "%-14s %6d bytes  %4d blocks  %3d loops\n",
				n, p.CodeBytes(), len(p.Blocks), len(p.Loops))
		}
		return 0
	case c.all:
		err = analyzeAll(stdout, c)
	case c.batch != "":
		err = runBatch(stdout, c)
	default:
		err = analyzeBench(stdout, c)
	}
	if err != nil {
		fmt.Fprintln(stderr, "pwcet:", err)
		return 1
	}
	return 0
}

// benchJSON is the machine-readable single-benchmark report.
type benchJSON struct {
	Benchmark     string          `json:"benchmark"`
	Cache         batchspec.Cache `json:"cache"`
	Pfail         float64         `json:"pfail"`
	PBF           float64         `json:"pbf"`
	FaultModel    string          `json:"fault_model,omitempty"`
	Lambda        float64         `json:"lambda,omitempty"`
	Target        float64         `json:"target"`
	Coarsen       string          `json:"coarsen"`
	ExactConvolve bool            `json:"exact_convolve"`
	HitRefs       int             `json:"hit_refs"`
	FMRefs        int             `json:"fm_refs"`
	MissRefs      int             `json:"miss_refs"`
	Mechanisms    []mechanismJSON `json:"mechanisms"`
}

// mechanismJSON is one mechanism's outcome.
type mechanismJSON struct {
	Mechanism     string `json:"mechanism"`
	FaultFreeWCET int64  `json:"fault_free_wcet"`
	PWCET         int64  `json:"pwcet"`
	MaxPenalty    int64  `json:"max_penalty"`
	// Degraded reports that a -soft-deadline retry tightened the support
	// cap: the pWCET is still a sound upper bound, just coarser.
	Degraded bool         `json:"degraded,omitempty"`
	Curve    []curvePoint `json:"curve,omitempty"`
}

// curvePoint is one atom of the exceedance curve.
type curvePoint struct {
	WCET       int64   `json:"wcet_cycles"`
	Exceedance float64 `json:"exceedance"`
}

// analyzeBench analyzes one benchmark under the selected mechanisms on
// one shared-work engine.
func analyzeBench(stdout io.Writer, c *config) error {
	p, err := pwcet.Benchmark(c.bench)
	if err != nil {
		return err
	}
	eng, err := pwcet.NewEngine(p, pwcet.EngineOptions{Workers: c.workers, ExactConvolve: c.exact})
	if err != nil {
		return err
	}
	queries := make([]pwcet.Query, len(c.mechs))
	for i, m := range c.mechs {
		queries[i] = c.query()
		queries[i].Mechanism, queries[i].PreciseSRB = m, c.precise && m == pwcet.SRB
	}
	batch, err := eng.AnalyzeBatch(queries)
	if err != nil {
		return err
	}
	results := make(map[pwcet.Mechanism]*core.Result, len(c.mechs))
	for i, m := range c.mechs {
		results[m] = batch[i]
	}

	if c.jsonOut {
		return writeBenchJSON(stdout, c, results)
	}

	first := results[c.mechs[0]]
	fmt.Fprintf(stdout, "benchmark %s: %d bytes of code, %d basic blocks, %d loops\n",
		c.bench, p.CodeBytes(), len(p.Blocks), len(p.Loops))
	fmt.Fprintf(stdout, "cache: %dB, %d sets x %d ways x %dB lines; pfail=%g (pbf=%.4g); target=%g\n",
		first.Query.Cache.SizeBytes(), first.Query.Cache.Sets, first.Query.Cache.Ways,
		first.Query.Cache.BlockBytes, first.Model.Pfail, first.Model.PBF, c.target)
	if c.faultModel != pwcet.ScenarioPermanent {
		fmt.Fprintf(stdout, "fault model: %s; lambda=%g upsets/line/cycle (window=%d cycles, per-access p=%.4g)\n",
			first.Scenario, c.lambda, first.Transient.Window, first.Transient.PMiss)
	}
	fmt.Fprintf(stdout, "references: %d always-hit, %d first-miss, %d always-miss/not-classified\n",
		first.HitRefs, first.FMRefs, first.MissRefs)

	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "mechanism\tfault-free WCET\tpWCET\tratio\tmax penalty")
	for _, m := range c.mechs {
		r := results[m]
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.3f\t%d\n",
			m, r.FaultFreeWCET, r.PWCET,
			float64(r.PWCET)/float64(r.FaultFreeWCET), r.Penalty.Max())
	}
	tw.Flush()

	if c.classes {
		printClasses(stdout, p, first.Query.Cache)
	}

	for _, m := range c.mechs {
		r := results[m]
		if c.fmm {
			fmt.Fprintf(stdout, "\nfault miss map (%s), rows = sets, columns = faulty blocks 0..W:\n", m)
			for s, row := range r.FMM {
				fmt.Fprintf(stdout, "  set %2d:", s)
				for _, v := range row {
					fmt.Fprintf(stdout, " %7d", v)
				}
				fmt.Fprintln(stdout)
			}
		}
		if c.curve {
			fmt.Fprintf(stdout, "\nexceedance curve (%s): wcet_cycles,probability\n", m)
			for _, pt := range r.ExceedanceCurve() {
				fmt.Fprintf(stdout, "%d,%.6g\n", pt.Value, pt.Prob)
			}
		}
		if c.validate > 0 {
			rep, err := sim.Validate(p, r, c.validate, 2, 1)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "\nvalidation (%s): %d fault maps x %d paths: max simulated %d, max bound %d, "+
				"bound violations %d, CCDF violations %d\n",
				m, rep.Samples, rep.PathsPerSample, rep.MaxTime, rep.MaxBound,
				rep.BoundViolations, rep.CCDFViolations)
		}
	}
	return nil
}

// writeBenchJSON emits the single-benchmark report as JSON.
func writeBenchJSON(stdout io.Writer, c *config, results map[pwcet.Mechanism]*core.Result) error {
	first := results[c.mechs[0]]
	rep := benchJSON{
		Benchmark:     c.bench,
		Cache:         batchspec.FromConfig(first.Query.Cache),
		Pfail:         first.Model.Pfail,
		PBF:           first.Model.PBF,
		Target:        c.target,
		Coarsen:       c.coarsen.String(),
		ExactConvolve: c.exact,
		HitRefs:       first.HitRefs,
		FMRefs:        first.FMRefs,
		MissRefs:      first.MissRefs,
	}
	if c.faultModel != pwcet.ScenarioPermanent {
		rep.FaultModel = c.faultModel.String()
		rep.Lambda = c.lambda
	}
	for _, m := range c.mechs {
		r := results[m]
		mj := mechanismJSON{
			Mechanism:     m.String(),
			FaultFreeWCET: r.FaultFreeWCET,
			PWCET:         r.PWCET,
			MaxPenalty:    r.Penalty.Max(),
			Degraded:      r.Degraded,
		}
		if c.curve {
			for _, pt := range r.ExceedanceCurve() {
				mj.Curve = append(mj.Curve, curvePoint{WCET: pt.Value, Exceedance: pt.Prob})
			}
		}
		rep.Mechanisms = append(rep.Mechanisms, mj)
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// loadBatchSpec reads and validates the sweep specification (the
// shared internal/batchspec wire format).
func loadBatchSpec(path string) (*batchspec.Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	spec, err := batchspec.Parse(f)
	if err != nil {
		return nil, fmt.Errorf("batch spec %s: %w", path, err)
	}
	return spec, nil
}

// runBatch executes the sweep specification: one engine per benchmark,
// the full (pfail x mechanism x target) grid as one batch each. With
// -ndjson rows stream per benchmark as compact JSON lines — the exact
// bytes pwcetd streams for the same spec.
func runBatch(stdout io.Writer, c *config) error {
	spec, err := loadBatchSpec(c.batch)
	if err != nil {
		return err
	}

	var rows []batchspec.Row
	stream := json.NewEncoder(stdout)
	for _, name := range spec.Benchmarks {
		p := malardalen.MustGet(name)
		eng, err := pwcet.NewEngine(p, spec.EngineOptions(c.workers))
		if err != nil {
			return err
		}
		queries := spec.Queries()
		if c.softDL > 0 {
			for i := range queries {
				queries[i].SoftDeadline = c.softDL
			}
		}
		results, err := eng.AnalyzeBatch(queries)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		benchRows := batchspec.Rows(name, queries, results)
		if c.ndjson {
			for _, r := range benchRows {
				if err := stream.Encode(r); err != nil {
					return err
				}
			}
			continue
		}
		rows = append(rows, benchRows...)
	}

	if c.ndjson {
		return nil
	}
	if c.jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rows)
	}
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "benchmark\tpfail\tmechanism\ttarget\tfault-free\tpWCET\tratio\t")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.3g\t%s\t%g\t%d\t%d\t%.3f\t\n",
			r.Benchmark, r.Pfail, r.Mechanism, r.Target, r.FaultFreeWCET, r.PWCET,
			float64(r.PWCET)/float64(r.FaultFreeWCET))
	}
	return tw.Flush()
}

// analyzeAll prints the whole-suite summary (one line per benchmark).
func analyzeAll(stdout io.Writer, c *config) error {
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "benchmark\tcode B\tfault-free\tnone\tsrb\trw\tgain srb\tgain rw\t")
	eo := core.EngineOptions{Workers: c.workers, ExactConvolve: c.exact}
	for _, name := range pwcet.Benchmarks() {
		p := malardalen.MustGet(name)
		results, err := core.AnalyzeAll(p, eo, c.query())
		if err != nil {
			return err
		}
		none, rw, srb := results[pwcet.None], results[pwcet.RW], results[pwcet.SRB]
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%.0f%%\t%.0f%%\t\n",
			name, p.CodeBytes(), none.FaultFreeWCET, none.PWCET, srb.PWCET, rw.PWCET,
			100*pwcet.Gain(none, srb), 100*pwcet.Gain(none, rw))
	}
	tw.Flush()
	return nil
}

// printClasses summarizes the CHMC classification per cache set.
func printClasses(stdout io.Writer, p *pwcet.Program, cfg pwcet.CacheConfig) {
	cls := core.Classify(p, cfg)
	perSet := make(map[int]map[string]int)
	for i, r := range cls.Refs {
		m := perSet[r.Set]
		if m == nil {
			m = make(map[string]int)
			perSet[r.Set] = m
		}
		m[cls.Classes[i].String()]++
		if cls.SRBHit[i] {
			m["SRB-AH"]++
		}
	}
	fmt.Fprintln(stdout, "\nper-set reference classification (AH / FM / AM / NC, SRB guaranteed hits):")
	for s := 0; s < cfg.Sets; s++ {
		m := perSet[s]
		fmt.Fprintf(stdout, "  set %2d: AH %3d  FM %3d  AM %3d  NC %3d  SRB-AH %3d\n",
			s, m["AH"], m["FM"], m["AM"], m["NC"], m["SRB-AH"])
	}
}
