// Command pwcetbench is the repository benchmark: the one measurement
// every performance claim about the analyzer is made with. It runs four
// seeded, closed-loop workloads, each in its own child process so that
// heap, GC and memo state never leak between them, prints every
// end-to-end metric with its unit, and checks every row it receives.
//
//	pwcetbench                                  # all workloads, untraced
//	pwcetbench -workload pfail-sweep-256 -seed 3 -seconds 10 -trace 0
//	pwcetbench -trace 1 -spans spans.json       # per-layer metrics
//	pwcetbench -runs 3 -out base.json           # medians and spreads
//	pwcetbench -compare base.json head.json     # head against base
//
// From a source checkout, `bash cmd/pwcetbench/run.sh <flags>` builds
// the binary under .bench_build and runs it; BENCHMARK.json at the
// repository root names the command, the workloads and the metrics.
//
// # Workloads
//
//   - geometry-sweep: a fresh engine per request for one of the 25 suite
//     programs on one of 12 cache geometries (16-128 sets, 2-8 ways),
//     answering {rw, srb} x pfail {1e-6, 1e-5}. Every request computes
//     classification, WCET and fault miss map from scratch, so absint
//     and ipet carry the time and dist barely shows.
//   - pfail-sweep-256: warm engines for adpcm, ud, qurt, fft and ludcmp
//     on a 16 KiB 256-set 4-way cache; each request sweeps one pfail in
//     1e-7..1e-3 over {none, srb} x targets {1e-9, 1e-15}. Every
//     artifact is memoized, so fault weighting and ConvolveAll at the
//     4096-atom cap carry the time and absint and ipet are bypassed.
//   - combined-256: the same engines under Combined{pfail, lambda} over
//     {none, srb}, every fourth request a pure Transient{lambda}: wide
//     per-set binomials and one large permanent-transient fold.
//   - serve-churn: two loopback clients POST /v1/batch specs drawn from
//     a fixed pool of 64 to an in-process service whose pool holds two
//     engines under a small artifact budget: spec parsing, NDJSON
//     streaming, pool eviction and artifact eviction with recomputation.
//
// Each workload's requests come from a deck that the seed shuffles
// round after round: the seed changes the order of requests, never the
// mix, so runs with different seeds measure the same work.
//
// # Closed loop
//
// The analyzer's callers are sweep clients that wait for their rows
// before sending the next spec, so every client runs a closed loop. An
// open-loop rate sweep would model independent arrivals, which no
// caller of this analyzer produces.
//
// # Metrics
//
// The end-to-end metrics (tracing off) are setup_s, rows_per_s,
// req_p50_ms, req_p90_ms, first_row_p50_ms, cpu_ms_per_row,
// alloc_kb_per_row and rss_p90_mb; failures are counted in the
// "failed" field against "attempted" rows, and any failure makes the
// run exit 1. The percentiles weigh every distinct request of the deck
// the same. Each child runs on one core (GOMAXPROCS 1), and times and
// rates are reported at the speed of a reference kernel timed during
// the run (see speed.go), which cancels the drift of shared machines; a
// "# raw:" header line gives them as measured.
// The traced run (-trace 1) replays every in-process
// request through the public layer functions — cfg, ipet, absint,
// fault, dist — and reports per-layer times, counts and ratios; see
// README.md for the glossary and the layer-to-metric table.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pwcetbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traceFlag, runs int
	var out string
	var compare, child bool
	fs.StringVar(&cfg.workload, "workload", "", "run only this workload (default: every workload)")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the request order; -runs adds the run index")
	fs.Float64Var(&cfg.seconds, "seconds", 25, "measured seconds per workload, after a warm-up of min(2 s, seconds/5)")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs the traced pass and prints the per-layer metrics instead of the end-to-end ones")
	fs.StringVar(&cfg.spans, "spans", "", "with -trace 1, write the spans to this JSON file (one file per workload, named after it, when running several)")
	fs.IntVar(&runs, "runs", 0, "repeat the whole set this many times, alternating the workload order, and print medians, quartiles and spreads")
	fs.StringVar(&out, "out", "", "with -runs, write every sample to this JSON file, for -compare")
	fs.BoolVar(&compare, "compare", false, "compare two -out files given as arguments: base.json head.json")
	fs.BoolVar(&child, "child", false, "run one workload in this process (used by the parent process)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "pwcetbench: "+format+"\n", a...)
		return 2
	}
	if compare {
		if fs.NArg() != 2 {
			return usage("-compare takes two files: base.json head.json")
		}
		return runCompare(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	switch {
	case fs.NArg() > 0:
		return usage("unexpected arguments %q", fs.Args())
	case traceFlag != 0 && traceFlag != 1:
		return usage("-trace must be 0 or 1, got %d", traceFlag)
	case cfg.seconds <= 0:
		return usage("-seconds must be positive, got %g", cfg.seconds)
	case cfg.spans != "" && traceFlag == 0:
		return usage("-spans needs -trace 1")
	case runs < 0:
		return usage("-runs must not be negative")
	case out != "" && runs == 0:
		return usage("-out needs -runs")
	}
	cfg.trace = traceFlag == 1
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	if cfg.workload != "" {
		if _, err := workloadByName(cfg.workload); err != nil {
			return usage("%v (have %s)", err, strings.Join(names, ", "))
		}
		names = []string{cfg.workload}
	}
	switch {
	case child:
		return runChild(cfg, stdout, stderr)
	case runs > 0:
		return runRepeated(cfg, names, runs, out, stdout, stderr)
	case len(names) == 1:
		res, lines, err := spawn(cfg, names[0], stderr)
		if res == nil {
			fmt.Fprintln(stderr, "pwcetbench:", err)
			return 1
		}
		printResult(stdout, lines, res)
		if err != nil || !res.Correct {
			return 1
		}
		return 0
	default:
		return runAll(cfg, names, stdout, stderr)
	}
}

func printResult(w io.Writer, lines []string, res *result) {
	for _, l := range lines {
		fmt.Fprintln(w, l)
	}
	b, _ := json.Marshal(res) // a result of numbers and strings always marshals
	fmt.Fprintf(w, "%s\n", b)
}

// runAll runs every workload once, prints each result and a table of
// every metric by workload, and ends with one line holding every
// result.
func runAll(cfg config, names []string, stdout, stderr io.Writer) int {
	all := struct {
		Correct   bool               `json:"correct"`
		Attempted int64              `json:"attempted"`
		Failed    int64              `json:"failed"`
		Workloads map[string]*result `json:"workloads"`
	}{Correct: true, Workloads: make(map[string]*result)}
	code := 0
	for _, name := range names {
		res, lines, err := spawn(cfg, name, stderr)
		if res == nil {
			fmt.Fprintln(stderr, "pwcetbench:", err)
			return 1
		}
		if err != nil || !res.Correct {
			code = 1
		}
		printResult(stdout, lines, res)
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		all.Workloads[name] = res
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	fmt.Fprintf(stdout, "%-30s %-14s", "metric", "unit")
	for _, name := range names {
		fmt.Fprintf(stdout, " %16s", name)
	}
	fmt.Fprintln(stdout)
	for _, d := range defs {
		fmt.Fprintf(stdout, "%-30s %-14s", d.Name, d.Unit)
		for _, name := range names {
			fmt.Fprintf(stdout, " %16.4f", all.Workloads[name].Metrics[d.Name].Value)
		}
		fmt.Fprintln(stdout)
	}
	b, _ := json.Marshal(all) // numbers and strings always marshal
	fmt.Fprintf(stdout, "%s\n", b)
	return code
}

// spawn runs one workload in a child process of this binary and returns
// its result and the child's other output lines. A child that printed a
// result and still failed returns both.
func spawn(cfg config, name string, stderr io.Writer) (*result, []string, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	args := []string{"-child", "-workload", name, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", "0"}
	if cfg.trace {
		args[len(args)-1] = "1"
	}
	if cfg.spans != "" {
		path := cfg.spans
		if cfg.workload == "" {
			ext := filepath.Ext(path)
			path = strings.TrimSuffix(path, ext) + "-" + name + ext
		}
		args = append(args, "-spans", path)
	}
	// Setup, warm-up and the post-window checks take well under a
	// minute, and the traced pass about twice the window; the timeout
	// only stops a hung child.
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Duration(cfg.seconds*float64(time.Second))+60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, nil, fmt.Errorf("%s: no result (exit: %v)", name, runErr)
	}
	if runErr != nil {
		runErr = fmt.Errorf("%s: %w", name, runErr)
	}
	return &res, lines[:len(lines)-1], runErr
}

// gomaxprocs is the parallelism every child sets: one. On a shared
// machine another tenant takes a core now and then; a run on two cores
// then waits on the stalled one at every join of the engine's per-set
// stages and slows by up to twice, which the serial reference kernel
// cannot see. A run on one core slows only as much as the kernel does.
func gomaxprocs() int { return 1 }
