package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// parent process re-executes itself with -child for every workload.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// benchmarkJSON is BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metric and
// workload tables the benchmark prints from in step, within the limits
// the file's readers accept.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b := readBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(b.Workloads) < 2 || len(b.Workloads) > 8 || len(b.EndToEnd) < 1 || len(b.EndToEnd) > 16 ||
		len(b.PerLayer) < 1 || len(b.PerLayer) > 128 {
		t.Fatalf("counts out of range: %d workloads, %d end-to-end, %d per-layer", len(b.Workloads), len(b.EndToEnd), len(b.PerLayer))
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", b.RunSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "cmd/pwcetbench" {
		t.Errorf("paths = %q", b.Paths)
	}
	for _, arg := range b.Command {
		if strings.HasPrefix(arg, "/") || strings.Contains(arg, "..") {
			t.Errorf("command argument %q leaves the repository", arg)
		}
	}
	seen := make(map[string]bool)
	check := func(n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: bad unit %q", n, u)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		check(w.Name, "")
		if w.Name != workloads[i].name || w.Why != workloads[i].why || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: BENCHMARK.json %q %q, code %q %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts differ from the code")
	}
	hasSetup := false
	for i, m := range b.EndToEnd {
		check(m.Name, m.Unit)
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Rel || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, code %+v", i, m, d)
		}
		hasSetup = hasSetup || m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower"
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for i, m := range b.PerLayer {
		check(m.Name, m.Unit)
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || d.Layer == "" || d.Moves == "" {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, code %+v", i, m, d)
		}
	}
}

// runAllWorkloads runs every workload at 200 ms and returns each
// workload's result.
func runAllWorkloads(t *testing.T, trace string) map[string]result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-seconds", "0.2", "-trace", trace}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var all struct {
		Correct   bool              `json:"correct"`
		Workloads map[string]result `json:"workloads"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &all); err != nil {
		t.Fatalf("last line is not the JSON summary: %v\n%s", err, stdout.String())
	}
	if !all.Correct || len(all.Workloads) != len(workloads) {
		t.Fatalf("summary: correct=%v, %d workloads", all.Correct, len(all.Workloads))
	}
	return all.Workloads
}

// checkPrinted asserts a result prints exactly the named metrics, each
// with its unit, and checked at least one row without a failure.
func checkPrinted(t *testing.T, w string, res result, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", w, res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: printed %d metrics, want %d", w, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: metric %s = %+v, want a number in %s", w, d.Name, m, d.Unit)
		}
	}
}

func TestEveryWorkloadShortRun(t *testing.T) {
	t.Parallel()
	for w, res := range runAllWorkloads(t, "0") {
		checkPrinted(t, w, res, endToEnd)
		for _, d := range endToEnd {
			if v := res.Metrics[d.Name].Value; v <= 0 {
				t.Errorf("%s: %s = %g, want > 0", w, d.Name, v)
			}
		}
	}
}

func TestEveryWorkloadTracedShortRun(t *testing.T) {
	t.Parallel()
	results := runAllWorkloads(t, "1")
	for w, res := range results {
		checkPrinted(t, w, res, perLayer)
	}
	v := func(w, m string) float64 { return results[w].Metrics[m].Value }
	// Each workload does what it claims.
	if got := v("geometry-sweep", "core.compute.classification") * v("geometry-sweep", "batchspec.rows_per_req") / 1000; got != 1 {
		t.Errorf("geometry-sweep: %g classifications per request, want 1", got)
	}
	for _, a := range []string{"classification", "wcet", "fmm-core", "fmm-column", "transient-bound"} {
		if got := v("pfail-sweep-256", "core.compute."+a); got != 0 {
			t.Errorf("pfail-sweep-256: core.compute.%s = %g, want 0", a, got)
		}
	}
	if v("pfail-sweep-256", "absint.classify_ms") != 0 || v("pfail-sweep-256", "dist.convolve_all_ms") <= 0 {
		t.Error("pfail-sweep-256 must bypass absint and run ConvolveAll")
	}
	if v("combined-256", "dist.fold_ms") <= 0 || v("combined-256", "fault.binomial_atoms") <= 0 {
		t.Error("combined-256 must fold binomial transient penalties")
	}
	if v("serve-churn", "batchspec.parse_ms") <= 0 || v("serve-churn", "serve.ttfb_ms") <= 0 {
		t.Error("serve-churn must parse specs and stream responses")
	}
}

// TestSequenceSeeded: a seed replays the same request sequence, and
// another seed orders it differently.
func TestSequenceSeeded(t *testing.T) {
	take := func(w *workload, seed int64, n int) []string {
		s := newSequence(w, seed)
		out := make([]string, n)
		for i := range out {
			out[i] = s.next().String()
		}
		return out
	}
	for _, w := range workloads {
		n := 2 * len(w.round(newSequence(w, 1).rng))
		a, b, c := take(w, 1, n), take(w, 1, n), take(w, 2, n)
		if strings.Join(a, "\n") != strings.Join(b, "\n") {
			t.Errorf("%s: seed 1 gave two different sequences", w.name)
		}
		if strings.Join(a, "\n") == strings.Join(c, "\n") {
			t.Errorf("%s: seeds 1 and 2 gave the same sequence", w.name)
		}
	}
}

// TestReplayMatchesEngine replays the first request of every in-process
// workload through the layer functions and requires the engine's rows
// byte for byte.
func TestReplayMatchesEngine(t *testing.T) {
	for _, w := range workloads {
		if w.serve {
			continue
		}
		check := newChecker()
		tgt, err := setupInproc(w, check, true)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		o := tgt.do(newSequence(w, 1).next(), 1, tr)
		attempted, failed, example := check.totals()
		if failed != 0 || attempted == 0 || o.rows == 0 {
			t.Errorf("%s: %d of %d rows failed: %s", w.name, failed, attempted, example)
		}
		if sums := tr.sums(1); sums["dist.convolve_all"].n == 0 || sums["request"].n != 1 {
			t.Errorf("%s: replay recorded no convolution or no request span: %v", w.name, sums)
		}
	}
}

// TestCorruptedOracleRowCounted: a served row that differs from the
// in-process oracle counts as a failed row.
func TestCorruptedOracleRowCounted(t *testing.T) {
	check := newChecker()
	srv, err := setupServer(1, check)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.close()
	req := request{spec: `{"benchmarks":["fibcall"],"pfails":[1e-4]}`, rows: 3}
	if o := srv.do(req, 1, nil); o.rows != 3 {
		t.Fatalf("served %d good rows, want 3", o.rows)
	}
	if err := srv.verifyOracle(); err != nil {
		t.Fatal(err)
	}
	if _, failed, ex := check.totals(); failed != 0 {
		t.Fatalf("clean response failed: %s", ex)
	}
	srv.responses[req.spec][1] = bytes.Replace(srv.responses[req.spec][1], []byte(`"pwcet":`), []byte(`"pwcet":1`), 1)
	if err := srv.verifyOracle(); err != nil {
		t.Fatal(err)
	}
	if attempted, failed, _ := check.totals(); failed != 1 || attempted != 3 {
		t.Errorf("corrupted row: attempted=%d failed=%d, want 3 and 1", attempted, failed)
	}
	// A repeat that differs from the first answer fails too.
	check.row("k", []byte("a"), "")
	if check.row("k", []byte("b"), "") {
		t.Error("a repeat differing from the first answer passed")
	}
}

// TestQuartilesMatchPython pins the spread arithmetic to
// statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
	} {
		q1, m, q3 := quartiles(c.in)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.in, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

// TestBalancedPercentile: distinct requests give the plain median, and a
// request the window ran more often weighs no more than the others.
func TestBalancedPercentile(t *testing.T) {
	rec := func(prog string, d time.Duration) record {
		return record{req: request{spec: prog}, o: outcome{elapsed: d}}
	}
	elapsed := func(r record) time.Duration { return r.o.elapsed }
	var distinct []record
	for i, p := range []string{"a", "b", "c", "d"} {
		distinct = append(distinct, rec(p, time.Duration(i+1)*time.Millisecond))
	}
	if got := balancedPercentile(distinct, 0.5, elapsed); got != 2.5 {
		t.Errorf("median of 1..4 ms = %g, want 2.5", got)
	}
	var repeated []record
	for range 9 {
		repeated = append(repeated, rec("fast", 10*time.Millisecond))
	}
	repeated = append(repeated, rec("mid", 20*time.Millisecond), rec("slow", 30*time.Millisecond))
	if got := balancedPercentile(repeated, 0.5, elapsed); math.Abs(got-20) > 1e-9 {
		t.Errorf("median with a request run 9 times = %g, want 20", got)
	}
	if got := balancedPercentile(repeated, 1, elapsed); got != 30 {
		t.Errorf("maximum = %g, want 30", got)
	}
}

// TestSpeedTrace: a time is converted by the kernel samples around it,
// and a total over the window by their mean.
func TestSpeedTrace(t *testing.T) {
	t0 := time.Now()
	st := speedTrace{at: []time.Time{t0, t0.Add(10 * time.Second)}, took: []time.Duration{refNominal, 2 * refNominal}}
	for _, c := range []struct {
		at   time.Duration
		want float64
	}{{0, 1}, {time.Second, 1}, {10 * time.Second, 0.5}, {5 * time.Second, 2.0 / 3}} {
		if got := st.factorAt(t0.Add(c.at)); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("factorAt(+%v) = %g, want %g", c.at, got, c.want)
		}
	}
	if got := st.mean(); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("mean = %g, want 0.75", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "req_p50_ms", Better: "lower", Rel: 0.10}
	for _, c := range []struct {
		base, head []float64
		want       string
	}{
		{[]float64{10, 10.1, 9.9}, []float64{10, 10.2, 9.8}, "within"},
		{[]float64{10, 10.1, 9.9}, []float64{12, 12.1, 11.9}, "regressed"},
		{[]float64{10, 10.1, 9.9}, []float64{9.5, 9.6, 9.4}, "within"},
		{[]float64{10, 10.1, 9.9}, []float64{8, 8.1, 7.9}, "improved"},
		{[]float64{10, 14, 6}, []float64{11, 15, 7}, "unresolved"},
		{[]float64{10, 14, 16}, []float64{5, 6, 7}, "improved"},
	} {
		if _, _, _, got := verdict(lower, c.base, c.head); got != c.want {
			t.Errorf("verdict(%v, %v) = %s, want %s", c.base, c.head, got, c.want)
		}
	}
}
