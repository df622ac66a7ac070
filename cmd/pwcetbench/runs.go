package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
)

// samples holds every value of repeated runs: workload -> metric ->
// one value per run. It is the file -runs writes with -out and
// -compare reads.
type samples struct {
	Seed       int64                           `json:"seed"`
	Seconds    float64                         `json:"seconds"`
	Runs       int                             `json:"runs"`
	Trace      bool                            `json:"trace"`
	GOMAXPROCS int                             `json:"gomaxprocs"`
	NProc      int                             `json:"nproc"`
	CPU        string                          `json:"cpu"`
	Failed     map[string]int64                `json:"failed"`
	Values     map[string]map[string][]float64 `json:"samples"`
}

// order returns the workload order of run i: as given on even runs,
// reversed on odd ones, so no workload always runs first.
func order(names []string, i int) []string {
	o := slices.Clone(names)
	if i%2 == 1 {
		slices.Reverse(o)
	}
	return o
}

// runRepeated runs the whole set of workloads n times, alternating the
// workload order and giving run i the seed seed+i, then prints each
// metric's median, quartiles and relative spread.
func runRepeated(cfg config, names []string, n int, out string, stdout, stderr io.Writer) int {
	s := samples{Seed: cfg.seed, Seconds: cfg.seconds, Runs: n, Trace: cfg.trace,
		GOMAXPROCS: gomaxprocs(), NProc: runtime.NumCPU(), CPU: cpuModel(),
		Failed: make(map[string]int64), Values: make(map[string]map[string][]float64)}
	code := 0
	for i := 0; i < n; i++ {
		c := cfg
		c.seed = cfg.seed + int64(i)
		for _, name := range order(names, i) {
			res, _, err := spawn(c, name, stderr)
			if res == nil {
				fmt.Fprintln(stderr, "pwcetbench:", err)
				return 1
			}
			if err != nil || !res.Correct {
				code = 1
			}
			s.Failed[name] += res.Failed
			if s.Values[name] == nil {
				s.Values[name] = make(map[string][]float64)
			}
			for m, v := range res.Metrics {
				s.Values[name][m] = append(s.Values[name][m], v.Value)
			}
			fmt.Fprintf(stderr, "pwcetbench: run %d/%d %s seed=%d done\n", i+1, n, name, c.seed)
		}
	}
	fmt.Fprintf(stdout, "# runs=%d seed=%d.. seconds=%g trace=%v gomaxprocs=%d nproc=%d cpu=%q\n",
		n, cfg.seed, cfg.seconds, cfg.trace, s.GOMAXPROCS, s.NProc, s.CPU)
	fmt.Fprintf(stdout, "%-16s %-30s %-14s %12s %12s %12s %8s\n", "workload", "metric", "unit", "median", "q1", "q3", "rel_iqr")
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, name := range names {
		for _, d := range defs {
			q1, med, q3 := quartiles(s.Values[name][d.Name])
			fmt.Fprintf(stdout, "%-16s %-30s %-14s %12.4f %12.4f %12.4f %8.4f\n", name, d.Name, d.Unit, med, q1, q3, relSpread(q1, med, q3))
		}
		fmt.Fprintf(stdout, "%-16s %-30s %-14s %12d\n", name, "failed", "rows", s.Failed[name])
	}
	if out != "" {
		b, err := json.MarshalIndent(s, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "pwcetbench:", err)
			return 1
		}
	}
	return code
}

// relSpread is the distance between the quartiles as a share of the
// median.
func relSpread(q1, med, q3 float64) float64 {
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// cpuModel reads the processor name for the -runs header.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func readSamples(path string) (*samples, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s samples
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// verdict judges one (workload, metric) pair of head against base:
//
//   - "regressed": head's median is worse than base's by more than the
//     bound;
//   - "unresolved": the spread of either side exceeds the bound and not
//     every head run is better than every base run, so the medians
//     cannot be told apart at this bound;
//   - "improved": head's median is better by more than the bound (a
//     hint, not a claimed gain: that needs paired runs);
//   - "within": otherwise.
//
// The bound is max(Rel*base median, Abs); the spread is the distance
// between a side's quartiles.
func verdict(d metricDef, base, head []float64) (bmed, hmed, bound float64, v string) {
	bq1, bmed, bq3 := quartiles(base)
	hq1, hmed, hq3 := quartiles(head)
	worse := hmed - bmed // positive when head is worse
	if d.Better == "higher" {
		worse = -worse
	}
	bound = max(d.Rel*math.Abs(bmed), d.Abs)
	allBetter := len(base) > 0 && len(head) > 0
	for _, h := range head {
		for _, b := range base {
			if d.Better == "higher" && h <= b || d.Better == "lower" && h >= b {
				allBetter = false
			}
		}
	}
	switch {
	case max(bq3-bq1, hq3-hq1) > bound && !allBetter:
		v = "unresolved"
	case worse > bound:
		v = "regressed"
	case -worse > bound:
		v = "improved"
	default:
		v = "within"
	}
	return bmed, hmed, bound, v
}

// runCompare prints one row per (workload, end-to-end metric): both
// medians, the change, the bound and the verdict. It exits 1 when any
// pair regressed or a side had failed rows.
func runCompare(basePath, headPath string, stdout, stderr io.Writer) int {
	base, err := readSamples(basePath)
	if err == nil {
		var head *samples
		if head, err = readSamples(headPath); err == nil {
			return compareSamples(base, head, stdout)
		}
	}
	fmt.Fprintln(stderr, "pwcetbench:", err)
	return 2
}

func compareSamples(base, head *samples, stdout io.Writer) int {
	if base.Seconds != head.Seconds {
		fmt.Fprintf(stdout, "# warning: run lengths differ (%gs vs %gs)\n", base.Seconds, head.Seconds)
	}
	names := make([]string, 0, len(base.Values))
	for name := range base.Values {
		if head.Values[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%-16s %-18s %-8s %12s %12s %9s %10s  %s\n", "workload", "metric", "unit", "base", "head", "delta%", "bound", "verdict")
	code := 0
	for _, name := range names {
		if base.Failed[name] > 0 || head.Failed[name] > 0 {
			fmt.Fprintf(stdout, "%-16s %-18s failed rows: base %d, head %d\n", name, "fail_ratio", base.Failed[name], head.Failed[name])
			code = 1
		}
		for _, d := range endToEnd {
			b, h := base.Values[name][d.Name], head.Values[name][d.Name]
			if len(b) == 0 || len(h) == 0 {
				continue
			}
			bmed, hmed, bound, v := verdict(d, b, h)
			pct := 0.0
			if bmed != 0 {
				pct = 100 * (hmed - bmed) / math.Abs(bmed)
			}
			fmt.Fprintf(stdout, "%-16s %-18s %-8s %12.4f %12.4f %+8.2f%% %10.4f  %s\n", name, d.Name, d.Unit, bmed, hmed, pct, bound, v)
			if v == "regressed" {
				code = 1
			}
		}
	}
	return code
}
