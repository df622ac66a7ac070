package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef describes one reported metric. The end-to-end and per-layer
// tables below are the single definition the benchmark prints and the
// compare tool judges by; BENCHMARK.json at the repository root repeats
// the names, units, directions and relative bounds (main_test.go keeps
// the two in step).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Rel and Abs bound a regression: a head median may be worse than
	// the base median by max(Rel*base, Abs) before it counts as one.
	// Only end-to-end metrics have bounds.
	Rel, Abs float64
	// Layer is the repository module a per-layer metric measures, and
	// Moves names the end-to-end metric and workload it should move.
	Layer, Moves string
}

// endToEnd are the metrics a user of the analyzer sees, measured with
// tracing off. Every workload reports every one of them.
//
// The relative bounds are as tight as run-to-run noise allows on a
// shared 2-core machine: there, 20 s blocks of one fixed serial
// workload differ by about 10% between their quartiles, so no timing
// can be bounded tighter than 0.25 without flagging noise as a
// regression. Allocation and memory are steadier. Memory is the 90th
// percentile of the resident set sampled over the window, not its
// peak: the Go heap grows in 4 MiB steps, and whether a run takes one
// more step turns on when a collection happens to start, so the peak of
// one run can stand a fifth above another's.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Rel: 0.25, Abs: 0.02},
	{Name: "rows_per_s", Unit: "rows/s", Better: "higher", Rel: 0.25},
	{Name: "req_p50_ms", Unit: "ms", Better: "lower", Rel: 0.25},
	{Name: "req_p90_ms", Unit: "ms", Better: "lower", Rel: 0.25},
	{Name: "first_row_p50_ms", Unit: "ms", Better: "lower", Rel: 0.25},
	{Name: "cpu_ms_per_row", Unit: "ms", Better: "lower", Rel: 0.25},
	{Name: "alloc_kb_per_row", Unit: "KiB", Better: "lower", Rel: 0.10},
	{Name: "rss_p90_mb", Unit: "MiB", Better: "lower", Rel: 0.20},
}

// perLayer are the traced run's metrics. Times and counts are per
// measured request unless the unit says otherwise.
var perLayer = []metricDef{
	{Name: "program.build_ms", Unit: "ms", Better: "lower", Layer: "program", Moves: "setup_s on every in-process workload"},
	{Name: "cfg.verify_ms", Unit: "ms/req", Better: "lower", Layer: "cfg", Moves: "req_p50_ms on geometry-sweep"},
	{Name: "absint.classify_ms", Unit: "ms/req", Better: "lower", Layer: "absint", Moves: "rows_per_s, req_p50_ms on geometry-sweep"},
	{Name: "absint.classify_calls", Unit: "calls/req", Better: "lower", Layer: "absint", Moves: "rows_per_s on geometry-sweep"},
	{Name: "absint.srb_ms", Unit: "ms/req", Better: "lower", Layer: "absint", Moves: "rows_per_s on geometry-sweep"},
	{Name: "ipet.system_ms", Unit: "ms/req", Better: "lower", Layer: "ipet", Moves: "rows_per_s on geometry-sweep"},
	{Name: "ipet.wcet_ms", Unit: "ms/req", Better: "lower", Layer: "ipet", Moves: "rows_per_s on geometry-sweep"},
	{Name: "ipet.fmm_ms", Unit: "ms/req", Better: "lower", Layer: "ipet", Moves: "rows_per_s on geometry-sweep"},
	{Name: "ipet.fmm_calls", Unit: "calls/req", Better: "lower", Layer: "ipet", Moves: "rows_per_s on geometry-sweep"},
	{Name: "ipet.hitbound_ms", Unit: "ms/req", Better: "lower", Layer: "ipet", Moves: "setup_s on combined-256, req_p90_ms on serve-churn"},
	{Name: "fault.weight_ms", Unit: "ms/req", Better: "lower", Layer: "fault", Moves: "rows_per_s on pfail-sweep-256"},
	{Name: "fault.binomial_ms", Unit: "ms/req", Better: "lower", Layer: "fault", Moves: "rows_per_s on combined-256"},
	{Name: "fault.binomial_atoms", Unit: "atoms/req", Better: "lower", Layer: "fault", Moves: "rows_per_s on combined-256"},
	{Name: "dist.convolve_all_ms", Unit: "ms/req", Better: "lower", Layer: "dist", Moves: "rows_per_s, req_p90_ms, cpu_ms_per_row on pfail-sweep-256"},
	{Name: "dist.convolve_all_calls", Unit: "calls/req", Better: "lower", Layer: "dist", Moves: "rows_per_s on pfail-sweep-256"},
	{Name: "dist.cap_bind_ratio", Unit: "ratio", Better: "lower", Layer: "dist", Moves: "cpu_ms_per_row on pfail-sweep-256"},
	{Name: "dist.support_out", Unit: "atoms", Better: "lower", Layer: "dist", Moves: "alloc_kb_per_row on pfail-sweep-256"},
	{Name: "dist.fold_ms", Unit: "ms/req", Better: "lower", Layer: "dist", Moves: "rows_per_s on combined-256"},
	{Name: "dist.quantile_ms", Unit: "ms/req", Better: "lower", Layer: "dist", Moves: "req_p50_ms on pfail-sweep-256"},
	{Name: "core.engine_build_ms", Unit: "ms", Better: "lower", Layer: "core", Moves: "setup_s on pfail-sweep-256 and combined-256"},
	{Name: "core.query_ms", Unit: "ms/req", Better: "lower", Layer: "core", Moves: "req_p50_ms on every in-process workload"},
	{Name: "core.self_ms", Unit: "ms/req", Better: "lower", Layer: "core", Moves: "req_p50_ms on pfail-sweep-256"},
	{Name: "core.memo_hit_ratio", Unit: "ratio", Better: "higher", Layer: "core", Moves: "req_p90_ms, rows_per_s on serve-churn"},
	{Name: "core.evictions", Unit: "count", Better: "lower", Layer: "core", Moves: "req_p90_ms, rows_per_s on serve-churn"},
	{Name: "core.resident_mb", Unit: "MiB", Better: "lower", Layer: "core", Moves: "rss_p90_mb on serve-churn"},
	{Name: "core.compute.classification", Unit: "per_1000_rows", Better: "lower", Layer: "core", Moves: "rows_per_s on geometry-sweep"},
	{Name: "core.compute.wcet", Unit: "per_1000_rows", Better: "lower", Layer: "core", Moves: "rows_per_s on geometry-sweep"},
	{Name: "core.compute.fmm-core", Unit: "per_1000_rows", Better: "lower", Layer: "core", Moves: "rows_per_s on geometry-sweep"},
	{Name: "core.compute.fmm-column", Unit: "per_1000_rows", Better: "lower", Layer: "core", Moves: "rows_per_s on geometry-sweep"},
	{Name: "core.compute.transient-bound", Unit: "per_1000_rows", Better: "lower", Layer: "core", Moves: "setup_s on combined-256"},
	{Name: "batchspec.parse_ms", Unit: "ms/req", Better: "lower", Layer: "batchspec", Moves: "first_row_p50_ms on serve-churn"},
	{Name: "batchspec.encode_ms", Unit: "ms/req", Better: "lower", Layer: "batchspec", Moves: "first_row_p50_ms on serve-churn"},
	{Name: "batchspec.rows_per_req", Unit: "rows/req", Better: "higher", Layer: "batchspec", Moves: "rows_per_s on every workload"},
	{Name: "serve.ttfb_ms", Unit: "ms/req", Better: "lower", Layer: "serve", Moves: "first_row_p50_ms on serve-churn"},
	{Name: "serve.row_gap_ms", Unit: "ms", Better: "lower", Layer: "serve", Moves: "req_p90_ms on serve-churn"},
	{Name: "serve.engine_prep_ms", Unit: "ms", Better: "lower", Layer: "serve", Moves: "first_row_p50_ms, req_p90_ms on serve-churn"},
	{Name: "serve.pool_hit_ratio", Unit: "ratio", Better: "higher", Layer: "serve", Moves: "req_p90_ms on serve-churn"},
	{Name: "serve.pool_evictions", Unit: "count", Better: "lower", Layer: "serve", Moves: "req_p90_ms on serve-churn"},
	{Name: "serve.artifact_evictions", Unit: "count", Better: "lower", Layer: "serve", Moves: "req_p90_ms on serve-churn"},
	{Name: "trace.coverage", Unit: "ratio", Better: "higher", Layer: "trace", Moves: "none: checks the trace itself"},
	{Name: "trace.overhead", Unit: "ratio", Better: "lower", Layer: "trace", Moves: "none: checks the trace itself"},
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line a run prints last: whether every checked row was
// right, how many rows were checked and failed, and the metrics.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill sets every metric of defs from values; a metric the workload
// did not produce reads 0.
func fill(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}

// percentile is the linearly interpolated p-quantile (0 <= p <= 1) of
// the durations, in milliseconds.
func percentile(ds []time.Duration, p float64) float64 {
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = ms(d)
	}
	return quantile(v, p)
}

// quantile is the linearly interpolated p-quantile (0 <= p <= 1) of the
// values.
func quantile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	x := p * float64(len(s)-1)
	lo := int(math.Floor(x))
	hi := int(math.Ceil(x))
	return s[lo] + (x-float64(lo))*(s[hi]-s[lo])
}

// balancedPercentile is the p-quantile (0 <= p <= 1), in milliseconds,
// of one duration of every request, with every distinct request of the
// deck weighing the same however often the window ran it. A window ends
// inside a round of the deck, so a plain percentile would lean toward
// the requests of its last, partial round. Each request sits at the
// middle of its weight on the cumulative scale, and the quantile is
// interpolated linearly between neighbours.
func balancedPercentile(recs []record, p float64, of func(record) time.Duration) float64 {
	if len(recs) == 0 {
		return 0
	}
	runs := make(map[string]int)
	keys := make([]string, len(recs))
	for i, r := range recs {
		keys[i] = r.req.String()
		runs[keys[i]]++
	}
	type point struct {
		d time.Duration
		w float64
	}
	pts := make([]point, len(recs))
	for i, r := range recs {
		pts[i] = point{d: of(r), w: 1 / float64(runs[keys[i]])}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].d < pts[j].d })
	at := make([]float64, len(pts))
	total := 0.0
	for i, pt := range pts {
		at[i] = total + pt.w/2
		total += pt.w
	}
	x := p * total
	i := sort.SearchFloat64s(at, x)
	switch {
	case i == 0:
		return ms(pts[0].d)
	case i == len(pts):
		return ms(pts[len(pts)-1].d)
	}
	lo, hi := float64(pts[i-1].d), float64(pts[i].d)
	return (lo + (x-at[i-1])/(at[i]-at[i-1])*(hi-lo)) / float64(time.Millisecond)
}

// quartiles returns the three cut points of statistics.quantiles(data,
// n=4) in Python's default ("exclusive") method, so the spread printed
// here is the one an outside reader computes from the same samples.
func quartiles(values []float64) (q1, median, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid buffer cannot fail.
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssMiB is the process's resident set size, from /proc/self/statm.
func rssMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("/proc/self/statm: unexpected %q", b)
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("/proc/self/statm: %w", err)
	}
	return float64(pages*int64(os.Getpagesize())) / (1 << 20), nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
