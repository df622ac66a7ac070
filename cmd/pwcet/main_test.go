package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	pwcet "repro"
)

// runCmd executes run with captured output.
func runCmd(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// TestInvalidFlagsExitWithUsage: every malformed flag or combination
// must exit with status 2 and print both the specific error and the
// flag usage, instead of surfacing a raw error mid-run.
func TestInvalidFlagsExitWithUsage(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring expected on stderr
	}{
		{"no args", nil, "-bench, -batch, -all or -list required"},
		{"bad mechanism", []string{"-bench", "bs", "-mech", "bogus"}, "unknown mechanism"},
		{"pfail above 1", []string{"-bench", "bs", "-pfail", "1.5"}, "outside [0,1]"},
		{"pfail negative", []string{"-bench", "bs", "-pfail", "-0.1"}, "outside [0,1]"},
		{"target zero", []string{"-bench", "bs", "-target", "0"}, "outside (0,1)"},
		{"target one", []string{"-bench", "bs", "-target", "1"}, "outside (0,1)"},
		{"negative workers", []string{"-bench", "bs", "-workers", "-2"}, "negative"},
		{"negative validate", []string{"-bench", "bs", "-validate", "-1"}, "negative"},
		{"unknown benchmark", []string{"-bench", "nope"}, "see -list"},
		{"unknown flag", []string{"-wat"}, "flag provided but not defined"},
		{"positional junk", []string{"-list", "extra"}, "unexpected arguments"},
		{"list plus bench", []string{"-list", "-bench", "bs"}, "mutually exclusive"},
		{"batch plus bench", []string{"-batch", "x.json", "-bench", "bs"}, "mutually exclusive"},
		{"all plus curve", []string{"-all", "-curve"}, "requires -bench"},
		{"all plus validate", []string{"-all", "-validate", "10"}, "requires -bench"},
		{"batch plus fmm", []string{"-batch", "x.json", "-fmm"}, "requires -bench"},
		{"batch plus pfail", []string{"-batch", "x.json", "-pfail", "1e-3"}, "cannot be combined with -batch"},
		{"batch plus mech", []string{"-batch", "x.json", "-mech", "srb"}, "cannot be combined with -batch"},
		{"batch plus target", []string{"-batch", "x.json", "-target", "1e-9"}, "cannot be combined with -batch"},
		{"batch plus coarsen", []string{"-batch", "x.json", "-coarsen", "keep-heaviest"}, "cannot be combined with -batch"},
		{"batch plus exact-convolve", []string{"-batch", "x.json", "-exact-convolve"}, "cannot be combined with -batch"},
		{"ndjson without batch", []string{"-bench", "bs", "-ndjson"}, "-ndjson requires -batch"},
		{"ndjson plus list", []string{"-list", "-ndjson"}, "-ndjson requires -batch"},
		{"ndjson plus json", []string{"-batch", "x.json", "-json", "-ndjson"}, "mutually exclusive"},
		{"bad coarsen", []string{"-bench", "bs", "-coarsen", "bogus"}, "unknown coarsening strategy"},
		{"list plus json", []string{"-list", "-json"}, "requires -bench or -batch"},
		{"all plus json", []string{"-all", "-json"}, "requires -bench or -batch"},
		{"json plus validate", []string{"-bench", "bs", "-json", "-validate", "10"}, "not available with -json"},
		{"json plus fmm", []string{"-bench", "bs", "-json", "-fmm"}, "not available with -json"},
		{"json plus classes", []string{"-bench", "bs", "-json", "-classes"}, "not available with -json"},
		{"negative soft-deadline", []string{"-bench", "bs", "-soft-deadline", "-1s"}, "negative"},
		{"soft-deadline plus list", []string{"-list", "-soft-deadline", "1s"}, "requires -bench or -batch"},
		{"soft-deadline plus all", []string{"-all", "-soft-deadline", "1s"}, "requires -bench or -batch"},
		{"all plus mech", []string{"-all", "-mech", "rw"}, "-mech cannot be combined with -all"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runCmd(t, tc.args...)
			if code != 2 {
				t.Fatalf("exit code %d, want 2 (stderr: %s)", code, stderr)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Errorf("stderr missing %q:\n%s", tc.want, stderr)
			}
			if !strings.Contains(stderr, "Usage") && !strings.Contains(stderr, "-bench string") {
				t.Errorf("stderr missing usage text:\n%s", stderr)
			}
			if stdout != "" {
				t.Errorf("usage errors must not write to stdout, got:\n%s", stdout)
			}
		})
	}
}

// TestListAndAnalyzeSucceed smoke-tests the happy paths, including the
// new -workers flag.
func TestListAndAnalyzeSucceed(t *testing.T) {
	code, stdout, stderr := runCmd(t, "-list")
	if code != 0 {
		t.Fatalf("-list exited %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "adpcm") {
		t.Errorf("-list output missing adpcm:\n%s", stdout)
	}

	code, stdout, stderr = runCmd(t, "-bench", "bs", "-mech", "rw", "-workers", "4")
	if code != 0 {
		t.Fatalf("analysis exited %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "pWCET") || !strings.Contains(stdout, "rw") {
		t.Errorf("analysis output incomplete:\n%s", stdout)
	}
}

// TestWorkersFlagDoesNotChangeOutput: the CLI output is identical for
// every -workers value (the determinism guarantee, end to end).
func TestWorkersFlagDoesNotChangeOutput(t *testing.T) {
	_, ref, _ := runCmd(t, "-bench", "crc", "-mech", "all", "-workers", "1")
	for _, w := range []string{"0", "2", "8"} {
		code, got, stderr := runCmd(t, "-bench", "crc", "-mech", "all", "-workers", w)
		if code != 0 {
			t.Fatalf("-workers %s exited %d: %s", w, code, stderr)
		}
		if got != ref {
			t.Errorf("-workers %s changed the output:\n--- workers=1\n%s\n--- workers=%s\n%s", w, ref, w, got)
		}
	}
}

// TestJSONOutput: -json emits a parseable report whose numbers match
// the text mode's analysis, including the exceedance curve with -curve.
func TestJSONOutput(t *testing.T) {
	code, stdout, stderr := runCmd(t, "-bench", "bs", "-mech", "all", "-curve", "-json")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	var rep struct {
		Benchmark string  `json:"benchmark"`
		Pfail     float64 `json:"pfail"`
		PBF       float64 `json:"pbf"`
		Target    float64 `json:"target"`
		Cache     struct {
			Sets int `json:"sets"`
			Ways int `json:"ways"`
		} `json:"cache"`
		Mechanisms []struct {
			Mechanism     string `json:"mechanism"`
			FaultFreeWCET int64  `json:"fault_free_wcet"`
			PWCET         int64  `json:"pwcet"`
			Curve         [][2]float64
			RawCurve      []struct {
				WCET       int64   `json:"wcet_cycles"`
				Exceedance float64 `json:"exceedance"`
			} `json:"curve"`
		} `json:"mechanisms"`
	}
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("unparseable -json output: %v\n%s", err, stdout)
	}
	if rep.Benchmark != "bs" || rep.Pfail != 1e-4 || rep.Target != 1e-15 {
		t.Errorf("header fields wrong: %+v", rep)
	}
	if rep.Cache.Sets != 16 || rep.Cache.Ways != 4 {
		t.Errorf("cache fields wrong: %+v", rep.Cache)
	}
	if len(rep.Mechanisms) != 3 {
		t.Fatalf("%d mechanisms, want 3", len(rep.Mechanisms))
	}
	for _, m := range rep.Mechanisms {
		if m.PWCET < m.FaultFreeWCET || m.FaultFreeWCET <= 0 {
			t.Errorf("%s: implausible WCETs %d/%d", m.Mechanism, m.FaultFreeWCET, m.PWCET)
		}
		if len(m.RawCurve) == 0 {
			t.Errorf("%s: -curve requested but curve empty", m.Mechanism)
		}
	}

	// Without -curve the curve field is omitted.
	_, stdout, _ = runCmd(t, "-bench", "bs", "-mech", "rw", "-json")
	if strings.Contains(stdout, "\"curve\"") {
		t.Errorf("curve present without -curve:\n%s", stdout)
	}
}

// TestSoftDeadlineDegradedEcho: an unmeetable -soft-deadline still
// yields a successful run whose JSON rows carry "degraded": true, while
// runs without the flag keep the field off the wire entirely.
func TestSoftDeadlineDegradedEcho(t *testing.T) {
	code, stdout, stderr := runCmd(t, "-bench", "bs", "-mech", "all", "-soft-deadline", "1ns", "-json")
	if code != 0 {
		t.Fatalf("degraded-mode run exited %d: %s", code, stderr)
	}
	var rep struct {
		Mechanisms []struct {
			Mechanism string `json:"mechanism"`
			PWCET     int64  `json:"pwcet"`
			Degraded  bool   `json:"degraded"`
		} `json:"mechanisms"`
	}
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("unparseable -json output: %v\n%s", err, stdout)
	}
	if len(rep.Mechanisms) != 3 {
		t.Fatalf("%d mechanisms, want 3", len(rep.Mechanisms))
	}
	for _, m := range rep.Mechanisms {
		if !m.Degraded {
			t.Errorf("%s: not flagged degraded under a 1ns soft deadline", m.Mechanism)
		}
		if m.PWCET <= 0 {
			t.Errorf("%s: implausible degraded pWCET %d", m.Mechanism, m.PWCET)
		}
	}

	_, stdout, _ = runCmd(t, "-bench", "bs", "-mech", "rw", "-json")
	if strings.Contains(stdout, "\"degraded\"") {
		t.Errorf("degraded field present without -soft-deadline:\n%s", stdout)
	}
}

// writeSpec writes a batch specification to a temp file.
func writeSpec(t *testing.T, spec string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestBatchSweep: a -batch run covers the full benchmark x pfail x
// mechanism x target grid, in spec order, and its JSON rows agree with
// independent one-shot analyses.
func TestBatchSweep(t *testing.T) {
	spec := `{
		"benchmarks": ["bs", "fibcall"],
		"pfails": [1e-5, 1e-3],
		"mechanisms": ["none", "srb"],
		"targets": [1e-9, 1e-15]
	}`
	code, stdout, stderr := runCmd(t, "-batch", writeSpec(t, spec), "-json")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	var rows []struct {
		Benchmark     string  `json:"benchmark"`
		Pfail         float64 `json:"pfail"`
		Mechanism     string  `json:"mechanism"`
		Target        float64 `json:"target"`
		FaultFreeWCET int64   `json:"fault_free_wcet"`
		PWCET         int64   `json:"pwcet"`
	}
	if err := json.Unmarshal([]byte(stdout), &rows); err != nil {
		t.Fatalf("unparseable batch JSON: %v\n%s", err, stdout)
	}
	if len(rows) != 2*2*2*2 {
		t.Fatalf("%d rows, want 16", len(rows))
	}
	if rows[0].Benchmark != "bs" || rows[8].Benchmark != "fibcall" {
		t.Errorf("row order does not follow the spec: %+v, %+v", rows[0], rows[8])
	}
	for _, r := range rows {
		p, err := pwcet.Benchmark(r.Benchmark)
		if err != nil {
			t.Fatal(err)
		}
		m, err := pwcet.ParseMechanism(r.Mechanism)
		if err != nil {
			t.Fatal(err)
		}
		solo, err := pwcet.Analyze(p, pwcet.Query{
			Pfail: r.Pfail, Mechanism: m, TargetExceedance: r.Target,
		})
		if err != nil {
			t.Fatal(err)
		}
		if solo.PWCET != r.PWCET || solo.FaultFreeWCET != r.FaultFreeWCET {
			t.Errorf("%s %s pfail=%g target=%g: batch (%d, %d) != one-shot (%d, %d)",
				r.Benchmark, r.Mechanism, r.Pfail, r.Target,
				r.FaultFreeWCET, r.PWCET, solo.FaultFreeWCET, solo.PWCET)
		}
	}

	// Text mode renders the same sweep as a table.
	code, stdout, stderr = runCmd(t, "-batch", writeSpec(t, spec))
	if code != 0 {
		t.Fatalf("text mode exit %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "benchmark") || !strings.Contains(stdout, "fibcall") {
		t.Errorf("batch table incomplete:\n%s", stdout)
	}
}

// TestBatchSpecValidation: malformed specifications fail with a clear
// error and exit status 1.
func TestBatchSpecValidation(t *testing.T) {
	cases := []struct {
		name, spec, want string
	}{
		{"no pfails", `{"benchmarks": ["bs"]}`, "pfails must be non-empty"},
		{"bad pfail", `{"pfails": [2]}`, "outside [0,1]"},
		{"bad target", `{"pfails": [1e-4], "targets": [0]}`, "outside (0,1)"},
		{"bad mechanism", `{"pfails": [1e-4], "mechanisms": ["bogus"]}`, "unknown mechanism"},
		{"bad benchmark", `{"pfails": [1e-4], "benchmarks": ["nope"]}`, "unknown benchmark"},
		{"bad max_support", `{"pfails": [1e-4], "max_support": 1}`, "at least 2 support points"},
		{"bad coarsen", `{"pfails": [1e-4], "coarsen": "bogus"}`, "unknown coarsening strategy"},
		{"unknown field", `{"pfails": [1e-4], "wat": 1}`, "unknown field"},
		{"syntax", `{`, "unexpected EOF"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runCmd(t, "-batch", writeSpec(t, tc.spec))
			if code != 1 {
				t.Fatalf("exit %d, want 1 (stderr: %s)", code, stderr)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Errorf("stderr missing %q:\n%s", tc.want, stderr)
			}
		})
	}
	if code, _, _ := runCmd(t, "-batch", "/nonexistent/spec.json"); code != 1 {
		t.Errorf("missing spec file: exit %d, want 1", code)
	}
}

// TestBatchCustomCache: the spec's cache object overrides the paper
// geometry for every query.
func TestBatchCustomCache(t *testing.T) {
	spec := `{
		"benchmarks": ["bs"],
		"pfails": [1e-3],
		"mechanisms": ["none"],
		"cache": {"sets": 8, "ways": 2, "block_bytes": 8, "hit_latency": 1, "mem_latency": 10}
	}`
	code, stdout, stderr := runCmd(t, "-batch", writeSpec(t, spec), "-json")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	var rows []struct {
		PWCET         int64 `json:"pwcet"`
		FaultFreeWCET int64 `json:"fault_free_wcet"`
	}
	if err := json.Unmarshal([]byte(stdout), &rows); err != nil {
		t.Fatal(err)
	}
	p, err := pwcet.Benchmark("bs")
	if err != nil {
		t.Fatal(err)
	}
	solo, err := pwcet.Analyze(p, pwcet.Query{
		Cache: pwcet.CacheConfig{Sets: 8, Ways: 2, BlockBytes: 8, HitLatency: 1, MemLatency: 10},
		Pfail: 1e-3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].PWCET != solo.PWCET {
		t.Errorf("custom-cache batch rows %+v, want pWCET %d", rows, solo.PWCET)
	}
}

// TestBatchCycleOverflowIsAnError: a memory latency whose cycle counts
// overflow int64 fails the batch with exit 1 and a one-line error
// naming the overflowing operation, never with a recovered panic.
func TestBatchCycleOverflowIsAnError(t *testing.T) {
	spec := `{
		"benchmarks": ["bs"],
		"pfails": [1e-4],
		"mechanisms": ["none", "rw", "srb"],
		"cache": {"sets": 16, "ways": 4, "block_bytes": 16, "hit_latency": 1, "mem_latency": 461168601842738790}
	}`
	code, stdout, stderr := runCmd(t, "-batch", writeSpec(t, spec), "-ndjson")
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, stderr)
	}
	if !strings.Contains(stderr, "WCET") || !strings.Contains(stderr, "overflows int64") {
		t.Errorf("stderr %q does not name the overflowing WCET", stderr)
	}
	if strings.Contains(stderr, "panic") {
		t.Errorf("stderr %q reports a panic", stderr)
	}
	if stdout != "" {
		t.Errorf("rows printed despite the error: %q", stdout)
	}
}

// TestBatchCoarsenStrategy: the spec's coarsen field reaches every
// query — rows match one-shot analyses run with the same strategy and
// binding cap.
func TestBatchCoarsenStrategy(t *testing.T) {
	spec := `{
		"benchmarks": ["bs"],
		"pfails": [1e-3],
		"mechanisms": ["none"],
		"max_support": 8,
		"coarsen": "keep-heaviest"
	}`
	code, stdout, stderr := runCmd(t, "-batch", writeSpec(t, spec), "-json")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	var rows []struct {
		PWCET int64 `json:"pwcet"`
	}
	if err := json.Unmarshal([]byte(stdout), &rows); err != nil {
		t.Fatal(err)
	}
	p, err := pwcet.Benchmark("bs")
	if err != nil {
		t.Fatal(err)
	}
	solo, err := pwcet.Analyze(p, pwcet.Query{
		Pfail: 1e-3, MaxSupport: 8, Coarsen: pwcet.CoarsenKeepHeaviest,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].PWCET != solo.PWCET {
		t.Errorf("coarsen batch rows %+v, want pWCET %d", rows, solo.PWCET)
	}
	// The single-benchmark JSON report echoes the strategy.
	code, stdout, stderr = runCmd(t, "-bench", "bs", "-mech", "none", "-coarsen", "keep-heaviest", "-json")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	var rep struct {
		Coarsen string `json:"coarsen"`
	}
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Coarsen != "keep-heaviest" {
		t.Errorf("report coarsen = %q, want keep-heaviest", rep.Coarsen)
	}
}

// TestBatchNDJSON: -ndjson streams one compact JSON row per line, in
// the same order and with the same values as the -json array.
func TestBatchNDJSON(t *testing.T) {
	spec := `{
		"benchmarks": ["bs", "fibcall"],
		"pfails": [1e-4],
		"mechanisms": ["none", "srb"]
	}`
	path := writeSpec(t, spec)
	code, jsonOut, stderr := runCmd(t, "-batch", path, "-json")
	if code != 0 {
		t.Fatalf("-json exit %d: %s", code, stderr)
	}
	var want []json.RawMessage
	if err := json.Unmarshal([]byte(jsonOut), &want); err != nil {
		t.Fatal(err)
	}

	code, ndOut, stderr := runCmd(t, "-batch", path, "-ndjson")
	if code != 0 {
		t.Fatalf("-ndjson exit %d: %s", code, stderr)
	}
	lines := strings.Split(strings.TrimRight(ndOut, "\n"), "\n")
	if len(lines) != len(want) {
		t.Fatalf("%d NDJSON lines, want %d", len(lines), len(want))
	}
	for i, line := range lines {
		if strings.ContainsAny(line, " \t") && strings.Contains(line, "  ") {
			t.Errorf("line %d is not compact: %q", i, line)
		}
		var wantRow, gotRow map[string]any
		if err := json.Unmarshal(want[i], &wantRow); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal([]byte(line), &gotRow); err != nil {
			t.Fatalf("line %d unparseable: %v\n%s", i, err, line)
		}
		if len(gotRow) != len(wantRow) {
			t.Fatalf("line %d fields %v, want %v", i, gotRow, wantRow)
		}
		for k, v := range wantRow {
			if gotRow[k] != v {
				t.Errorf("line %d field %q = %v, want %v", i, k, gotRow[k], v)
			}
		}
	}
}

// targetSpecs are the sweeps of testdata/targets.golden.ndjson, in the
// order their rows appear there: several exceedance targets per penalty
// distribution on small programs under every mechanism, a combined and
// a transient sweep, and 256-set sweeps (adpcm, and ud, whose none
// reduction runs the in-tree coarsening path).
var targetSpecs = []string{"targets-permanent", "targets-combined", "targets-transient", "targets-256"}

// TestBatchTargetsGolden pins the -batch -ndjson wire bytes of
// multi-target sweeps. The golden was recorded while every query still
// convolved its own penalty distribution; rows of one distribution read
// at different targets must stay byte-identical to it, whatever the
// worker count.
func TestBatchTargetsGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "targets.golden.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []string{"1", "4"} {
		var got strings.Builder
		for _, name := range targetSpecs {
			code, stdout, stderr := runCmd(t, "-batch", filepath.Join("testdata", name+".json"), "-ndjson", "-workers", workers)
			if code != 0 {
				t.Fatalf("%s -workers %s: exit %d: %s", name, workers, code, stderr)
			}
			got.WriteString(stdout)
		}
		if got.String() == string(want) {
			continue
		}
		g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Fatalf("-workers %s: line %d differs from the golden\n got: %s\nwant: %s", workers, i+1, g[i], w[i])
			}
		}
		t.Fatalf("-workers %s: %d lines, golden has %d", workers, len(g), len(w))
	}
}

// TestCLIGolden pins the stdout bytes of the -all summary (permanent,
// combined, and exact-convolve under a binding keep-heaviest cap) and
// of the single-benchmark JSON report, with and without the curve.
func TestCLIGolden(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		{"all", []string{"-all"}},
		{"all-combined", []string{"-all", "-fault-model", "combined", "-pfail", "1e-4", "-lambda", "1e-10"}},
		{"all-exact-keep-heaviest", []string{"-all", "-exact-convolve", "-coarsen", "keep-heaviest", "-pfail", "1e-3"}},
		{"adpcm-json", []string{"-bench", "adpcm", "-mech", "all", "-json"}},
		{"bs-json-curve", []string{"-bench", "bs", "-mech", "all", "-json", "-curve"}},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			code, stdout, stderr := runCmd(t, tc.args...)
			if code != 0 {
				t.Fatalf("%v: exit %d: %s", tc.args, code, stderr)
			}
			if stdout == string(want) {
				return
			}
			g, w := strings.Split(stdout, "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(g) && i < len(w); i++ {
				if g[i] != w[i] {
					t.Fatalf("%v: line %d differs from the golden\n got: %s\nwant: %s", tc.args, i+1, g[i], w[i])
				}
			}
			t.Fatalf("%v: %d lines, golden has %d", tc.args, len(g), len(w))
		})
	}
}

// TestExactConvolve: the -exact-convolve escape hatch and the spec's
// exact_convolve field run the exact convolution fold; without a
// binding support cap its pWCETs match the default path (the
// differential suites pin this byte-identical), and the JSON report
// echoes the flag.
func TestExactConvolve(t *testing.T) {
	code, fast, stderr := runCmd(t, "-bench", "bs", "-mech", "srb", "-json")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	code, exact, stderr := runCmd(t, "-bench", "bs", "-mech", "srb", "-json", "-exact-convolve")
	if code != 0 {
		t.Fatalf("-exact-convolve exit %d: %s", code, stderr)
	}
	var fastRep, exactRep struct {
		ExactConvolve bool `json:"exact_convolve"`
		Mechanisms    []struct {
			PWCET int64 `json:"pwcet"`
		} `json:"mechanisms"`
	}
	if err := json.Unmarshal([]byte(fast), &fastRep); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(exact), &exactRep); err != nil {
		t.Fatal(err)
	}
	if fastRep.ExactConvolve || !exactRep.ExactConvolve {
		t.Errorf("exact_convolve echo: fast %v, exact %v", fastRep.ExactConvolve, exactRep.ExactConvolve)
	}
	if len(fastRep.Mechanisms) != 1 || len(exactRep.Mechanisms) != 1 ||
		fastRep.Mechanisms[0].PWCET != exactRep.Mechanisms[0].PWCET {
		t.Errorf("uncapped exact convolution changed the pWCET: %+v vs %+v", fastRep.Mechanisms, exactRep.Mechanisms)
	}

	// Through the batch spec: exact_convolve + workers are accepted and
	// the row matches a one-shot exact analysis.
	spec := `{
		"benchmarks": ["bs"],
		"pfails": [1e-3],
		"mechanisms": ["srb"],
		"exact_convolve": true,
		"workers": 2
	}`
	code, stdout, stderr := runCmd(t, "-batch", writeSpec(t, spec), "-json")
	if code != 0 {
		t.Fatalf("batch exact_convolve exit %d: %s", code, stderr)
	}
	var rows []struct {
		PWCET int64 `json:"pwcet"`
	}
	if err := json.Unmarshal([]byte(stdout), &rows); err != nil {
		t.Fatal(err)
	}
	p, err := pwcet.Benchmark("bs")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := pwcet.NewEngine(p, pwcet.EngineOptions{ExactConvolve: true})
	if err != nil {
		t.Fatal(err)
	}
	solo, err := eng.Analyze(pwcet.Query{Pfail: 1e-3, Mechanism: pwcet.SRB})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].PWCET != solo.PWCET {
		t.Errorf("batch exact_convolve rows %+v, want pWCET %d", rows, solo.PWCET)
	}
}

// TestAllHonorsCoarsen: -all analyzes under the selected -coarsen
// strategy, so its ud row matches -bench ud under keep-heaviest — a
// configuration where the strategy changes the none pWCET.
func TestAllHonorsCoarsen(t *testing.T) {
	flags := []string{"-pfail", "1e-3", "-target", "1e-9"}
	benchPWCETs := func(coarsen string) map[string]int64 {
		t.Helper()
		args := append([]string{"-bench", "ud", "-mech", "all", "-json", "-coarsen", coarsen}, flags...)
		code, stdout, stderr := runCmd(t, args...)
		if code != 0 {
			t.Fatalf("-bench ud -coarsen %s exit %d: %s", coarsen, code, stderr)
		}
		var rep struct {
			Mechanisms []struct {
				Mechanism string `json:"mechanism"`
				PWCET     int64  `json:"pwcet"`
			} `json:"mechanisms"`
		}
		if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
			t.Fatal(err)
		}
		out := make(map[string]int64)
		for _, m := range rep.Mechanisms {
			out[m.Mechanism] = m.PWCET
		}
		return out
	}
	want := benchPWCETs("keep-heaviest")
	if le := benchPWCETs("least-error"); le["none"] == want["none"] {
		t.Fatalf("corpus bug: ud none pWCET %d is the same under both strategies", le["none"])
	}

	code, stdout, stderr := runCmd(t, append([]string{"-all", "-coarsen", "keep-heaviest"}, flags...)...)
	if code != 0 {
		t.Fatalf("-all exit %d: %s", code, stderr)
	}
	for _, line := range strings.Split(stdout, "\n") {
		f := strings.Fields(line)
		if len(f) < 6 || f[0] != "ud" {
			continue
		}
		// Columns: benchmark, code B, fault-free, none, srb, rw, gains.
		got := map[string]string{"none": f[3], "srb": f[4], "rw": f[5]}
		for mech, v := range got {
			if v != strconv.FormatInt(want[mech], 10) {
				t.Errorf("-all ud %s pWCET %s, want %d as from -bench ud", mech, v, want[mech])
			}
		}
		return
	}
	t.Fatalf("-all output has no ud row:\n%s", stdout)
}

// TestProfilingFlags: -cpuprofile and -memprofile must write non-empty
// pprof files on a clean run, and an unwritable profile path must exit
// 1 with a diagnostic instead of silently analyzing without a profile.
func TestProfilingFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")
	code, _, stderr := runCmd(t, "-bench", "bs", "-mech", "rw", "-cpuprofile", cpu, "-memprofile", mem)
	if code != 0 {
		t.Fatalf("profiled run exited %d: %s", code, stderr)
	}
	for _, path := range []string{cpu, mem} {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile %s not written: %v", path, err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", path)
		}
	}

	code, _, stderr = runCmd(t, "-bench", "bs", "-cpuprofile", filepath.Join(dir, "missing", "cpu.out"))
	if code != 1 || !strings.Contains(stderr, "pwcet:") {
		t.Fatalf("unwritable -cpuprofile: exit %d, stderr %q (want 1 with diagnostic)", code, stderr)
	}
	code, _, stderr = runCmd(t, "-bench", "bs", "-memprofile", filepath.Join(dir, "missing", "mem.out"))
	if code != 1 || !strings.Contains(stderr, "pwcet:") {
		t.Fatalf("unwritable -memprofile: exit %d, stderr %q (want 1 with diagnostic)", code, stderr)
	}
}

// TestMemProfileSkippedOnFailure: the heap profile is only written on
// clean exit — a failing run must not leave one behind.
func TestMemProfileSkippedOnFailure(t *testing.T) {
	dir := t.TempDir()
	mem := filepath.Join(dir, "mem.out")
	code, _, _ := runCmd(t, "-batch", filepath.Join(dir, "does-not-exist.json"), "-memprofile", mem)
	if code != 1 {
		t.Fatalf("missing batch spec exited %d, want 1", code)
	}
	if _, err := os.Stat(mem); err == nil {
		t.Fatal("heap profile written despite a failing run")
	}
}
