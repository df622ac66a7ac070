package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	pwcet "repro"
	"repro/internal/batchspec"
	"repro/internal/malardalen"
)

func newTestServer(t *testing.T, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opt)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postSpec(t *testing.T, url, spec string, header map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/batch", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// readRows decodes the NDJSON body; any {"error": ...} line fails the
// test.
func readRows(t *testing.T, body io.Reader) []batchspec.Row {
	t.Helper()
	var rows []batchspec.Row
	sc := bufio.NewScanner(body)
	for sc.Scan() {
		var probe map[string]any
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			t.Fatalf("unparseable NDJSON line %q: %v", sc.Text(), err)
		}
		if msg, ok := probe["error"]; ok {
			t.Fatalf("stream ended with error line: %v", msg)
		}
		var row batchspec.Row
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestBatchStreamMatchesEngine: the streamed rows arrive in grid order
// and equal the rows a direct engine batch produces for the same spec.
func TestBatchStreamMatchesEngine(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	spec := `{
		"benchmarks": ["bs", "fibcall"],
		"pfails": [1e-5, 1e-3],
		"mechanisms": ["none", "srb"],
		"targets": [1e-9, 1e-15]
	}`
	resp := postSpec(t, ts.URL, spec, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type %q", ct)
	}
	if rows := resp.Header.Get("X-Pwcet-Rows"); rows != "16" {
		t.Errorf("X-Pwcet-Rows %q, want 16", rows)
	}
	got := readRows(t, resp.Body)

	parsed, err := batchspec.Parse(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var want []batchspec.Row
	for _, name := range parsed.Benchmarks {
		p := malardalen.MustGet(name)
		eng, err := pwcet.NewEngine(p, parsed.EngineOptions(0))
		if err != nil {
			t.Fatal(err)
		}
		queries := parsed.Queries()
		results, err := eng.AnalyzeBatch(queries)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, batchspec.Rows(name, queries, results)...)
	}
	if len(got) != len(want) {
		t.Fatalf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestBatchStreamTransientMatchesEngine extends the byte-identity
// guarantee to the scenario layer: a combined permanent+transient sweep
// streamed by the service equals the rows of a direct engine batch,
// including the fault_model and lambda columns.
func TestBatchStreamTransientMatchesEngine(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	spec := `{
		"benchmarks": ["bs"],
		"fault_model": "combined",
		"pfails": [0, 1e-3],
		"lambdas": [0, 1e-10],
		"mechanisms": ["none", "srb"]
	}`
	resp := postSpec(t, ts.URL, spec, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if rows := resp.Header.Get("X-Pwcet-Rows"); rows != "8" {
		t.Errorf("X-Pwcet-Rows %q, want 8", rows)
	}
	got := readRows(t, resp.Body)

	parsed, err := batchspec.Parse(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	p := malardalen.MustGet("bs")
	eng, err := pwcet.NewEngine(p, parsed.EngineOptions(0))
	if err != nil {
		t.Fatal(err)
	}
	queries := parsed.Queries()
	results, err := eng.AnalyzeBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	want := batchspec.Rows("bs", queries, results)
	if len(got) != len(want) {
		t.Fatalf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d = %+v, want %+v", i, got[i], want[i])
		}
		if got[i].FaultModel != "combined" {
			t.Errorf("row %d fault_model %q, want combined", i, got[i].FaultModel)
		}
	}
}

// TestHandlerTable covers the rejection paths: wrong method, malformed
// and oversized specs, and missing or wrong API keys.
func TestHandlerTable(t *testing.T) {
	_, ts := newTestServer(t, Options{
		APIKeys:      []string{"secret-key", "other-key"},
		MaxBodyBytes: 512,
	})
	auth := map[string]string{"Authorization": "Bearer secret-key"}
	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		header     map[string]string
		wantStatus int
		wantBody   string
	}{
		{"wrong method", http.MethodGet, "/v1/batch", "", auth, http.StatusMethodNotAllowed, ""},
		{"no key", http.MethodPost, "/v1/batch", `{"pfails":[1e-4]}`, nil, http.StatusUnauthorized, "API key"},
		{"wrong key", http.MethodPost, "/v1/batch", `{"pfails":[1e-4]}`,
			map[string]string{"Authorization": "Bearer nope"}, http.StatusUnauthorized, "API key"},
		{"wrong scheme", http.MethodPost, "/v1/batch", `{"pfails":[1e-4]}`,
			map[string]string{"Authorization": "Basic secret-key"}, http.StatusUnauthorized, "API key"},
		{"benchmarks no key", http.MethodGet, "/v1/benchmarks", "", nil, http.StatusUnauthorized, "API key"},
		{"syntax error", http.MethodPost, "/v1/batch", `{`, auth, http.StatusBadRequest, "batch spec"},
		{"no pfails", http.MethodPost, "/v1/batch", `{"benchmarks":["bs"]}`, auth, http.StatusBadRequest, "pfails must be non-empty"},
		{"unknown field", http.MethodPost, "/v1/batch", `{"pfails":[1e-4],"wat":1}`, auth, http.StatusBadRequest, "unknown field"},
		{"unknown benchmark", http.MethodPost, "/v1/batch", `{"pfails":[1e-4],"benchmarks":["nope"]}`, auth, http.StatusBadRequest, "unknown benchmark"},
		{"bad mechanism", http.MethodPost, "/v1/batch", `{"pfails":[1e-4],"mechanisms":["bogus"]}`, auth, http.StatusBadRequest, "unknown mechanism"},
		{"oversized body", http.MethodPost, "/v1/batch",
			`{"pfails":[1e-4],"benchmarks":[` + strings.Repeat(`"bs",`, 200) + `"bs"]}`,
			auth, http.StatusRequestEntityTooLarge, "larger than"},
		{"healthz", http.MethodGet, "/healthz", "", nil, http.StatusOK, "ok"},
		{"metrics", http.MethodGet, "/metrics", "", nil, http.StatusOK, "engine_pool"},
		{"benchmarks", http.MethodGet, "/v1/benchmarks", "", auth, http.StatusOK, `"bs"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			for k, v := range tc.header {
				req.Header.Set(k, v)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d (body: %s)", resp.StatusCode, tc.wantStatus, body)
			}
			if tc.wantBody != "" && !strings.Contains(string(body), tc.wantBody) {
				t.Errorf("body %q missing %q", body, tc.wantBody)
			}
		})
	}

	// A valid key passes auth and streams.
	resp := postSpec(t, ts.URL, `{"benchmarks":["bs"],"pfails":[1e-4],"mechanisms":["none"]}`, auth)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid key rejected: %d", resp.StatusCode)
	}
	if rows := readRows(t, resp.Body); len(rows) != 1 {
		t.Errorf("%d rows, want 1", len(rows))
	}
}

// TestRateLimit: each key has its own token bucket on the injected
// clock — burst, rejection, refill, isolation between keys.
func TestRateLimit(t *testing.T) {
	now := time.Unix(1000, 0)
	var mu sync.Mutex
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}
	_, ts := newTestServer(t, Options{
		APIKeys:       []string{"alpha", "beta"},
		RatePerSecond: 1,
		Burst:         2,
		Now:           clock,
	})
	spec := `{"benchmarks":["bs"],"pfails":[1e-4],"mechanisms":["none"]}`
	status := func(key string) int {
		resp := postSpec(t, ts.URL, spec, map[string]string{"Authorization": "Bearer " + key})
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	if s := status("alpha"); s != http.StatusOK {
		t.Fatalf("1st request: %d", s)
	}
	if s := status("alpha"); s != http.StatusOK {
		t.Fatalf("2nd request (burst): %d", s)
	}
	if s := status("alpha"); s != http.StatusTooManyRequests {
		t.Fatalf("3rd request: %d, want 429", s)
	}
	// The other key has its own bucket.
	if s := status("beta"); s != http.StatusOK {
		t.Fatalf("other key rejected: %d", s)
	}
	// One second refills one token.
	advance(time.Second)
	if s := status("alpha"); s != http.StatusOK {
		t.Fatalf("post-refill request: %d", s)
	}
	if s := status("alpha"); s != http.StatusTooManyRequests {
		t.Fatalf("refill must add one token, not reset the burst: %d", s)
	}
}

// TestClientDisconnectDoesNotWedgePool: a client that vanishes
// mid-stream must not pin the pool — the engine is returned and the
// next request (same program, MaxEngines=1) completes normally.
func TestClientDisconnectDoesNotWedgePool(t *testing.T) {
	// The handler could stream every row before the client's cancel
	// reaches it, leaving no disconnect to count. So the first batch is
	// held after its first row (Now runs once per streamed row) until
	// the server has seen its client leave.
	var (
		srv        *Server
		firstBatch atomic.Pointer[context.Context]
		held       atomic.Bool
	)
	srv = New(Options{Pool: PoolOptions{MaxEngines: 1}, Now: func() time.Time {
		if srv.met.rowsStreamed.get() == 1 && held.CompareAndSwap(false, true) {
			select {
			case <-(*firstBatch.Load()).Done():
			case <-time.After(5 * time.Second):
			}
		}
		return time.Now()
	}})
	h := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/batch" {
			ctx := r.Context()
			firstBatch.CompareAndSwap(nil, &ctx)
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	spec := `{"benchmarks":["adpcm"],"pfails":[1e-6,1e-5,1e-4,1e-3],"mechanisms":["none","rw","srb"]}`

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/batch", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read one row, then walk away mid-stream.
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatalf("first row: %v", err)
	}
	cancel()
	resp.Body.Close()

	// The pool must recover: the same program analyzes again through
	// the single pool slot, to completion.
	resp2 := postSpec(t, ts.URL, spec, nil)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-disconnect request: %d", resp2.StatusCode)
	}
	if rows := readRows(t, resp2.Body); len(rows) != 12 {
		t.Fatalf("post-disconnect rows %d, want 12", len(rows))
	}
	st := srv.pool.Stats()
	if st.Engines > 1 {
		t.Errorf("pool over bound after disconnect: %+v", st)
	}
	if st.Hits == 0 {
		t.Errorf("second request should reuse the warm engine: %+v", st)
	}
	// The disconnect metric lands asynchronously with the aborted
	// handler; poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for srv.met.clientDisconnects.get() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if srv.met.clientDisconnects.get() == 0 {
		t.Error("client disconnect not counted")
	}
}

// TestPoolEvictionAndReuse: the pool caps resident engines, evicts LRU
// whole engines, and reuses warm ones.
func TestPoolEvictionAndReuse(t *testing.T) {
	srv, ts := newTestServer(t, Options{Pool: PoolOptions{MaxEngines: 2}})
	spec := func(bench string) string {
		return fmt.Sprintf(`{"benchmarks":[%q],"pfails":[1e-4],"mechanisms":["none"]}`, bench)
	}
	for _, bench := range []string{"bs", "fibcall", "crc", "bs"} {
		resp := postSpec(t, ts.URL, spec(bench), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", bench, resp.StatusCode)
		}
		readRows(t, resp.Body)
	}
	st := srv.pool.Stats()
	if st.Engines > 2 {
		t.Errorf("resident engines %d exceed MaxEngines 2", st.Engines)
	}
	if st.Evictions == 0 {
		t.Error("three distinct programs through two slots evicted nothing")
	}
	if st.Misses < 3 {
		t.Errorf("misses %d, want >= 3 (one per distinct program)", st.Misses)
	}
}

// TestDrain: draining rejects new work with 503 on both the batch and
// health endpoints, and Drain returns once the server is idle.
func TestDrain(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	resp := postSpec(t, ts.URL, `{"benchmarks":["bs"],"pfails":[1e-4],"mechanisms":["none"]}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-drain request: %d", resp.StatusCode)
	}
	readRows(t, resp.Body)

	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("idle drain: %v", err)
	}
	resp = postSpec(t, ts.URL, `{"benchmarks":["bs"],"pfails":[1e-4]}`, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("batch during drain: %d, want 503", resp.StatusCode)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain: %d, want 503", hresp.StatusCode)
	}
}

// TestBatchTimeout: a batch exceeding BatchTimeout ends with an error
// line instead of streaming forever.
func TestBatchTimeout(t *testing.T) {
	// A clock that jumps far past the deadline after the first read
	// makes the timeout deterministic without a slow spec.
	base := time.Unix(0, 0)
	calls := 0
	var mu sync.Mutex
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		calls++
		return base.Add(time.Duration(calls) * time.Hour)
	}
	_, ts := newTestServer(t, Options{BatchTimeout: time.Minute, Now: clock})
	resp := postSpec(t, ts.URL, `{"benchmarks":["bs"],"pfails":[1e-4],"mechanisms":["none","srb"]}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "batch timeout exceeded") {
		t.Errorf("timed-out batch did not report the timeout:\n%s", body)
	}
}

// TestMetricsEndpoint: after a sweep, the counters reflect the
// requests, rows and pool activity.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp := postSpec(t, ts.URL, `{"benchmarks":["bs"],"pfails":[1e-5,1e-4],"mechanisms":["none"]}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	readRows(t, resp.Body)

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var m metricsJSON
	if err := json.NewDecoder(mresp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Batches != 1 || m.RowsStreamed != 2 {
		t.Errorf("batches %d rows %d, want 1 and 2", m.Batches, m.RowsStreamed)
	}
	if m.Pool.Misses != 1 || m.Pool.Engines != 1 {
		t.Errorf("pool stats %+v, want 1 miss, 1 engine", m.Pool)
	}
	if m.Pool.ArtifactBytes <= 0 {
		t.Errorf("artifact residency %d, want > 0 after a sweep", m.Pool.ArtifactBytes)
	}
	if m.RowLatency.Count != 2 || m.BatchLatency.Count != 1 || m.SpecParse.Count != 1 {
		t.Errorf("latency histograms incomplete: rows %d batches %d specs %d",
			m.RowLatency.Count, m.BatchLatency.Count, m.SpecParse.Count)
	}
}

// TestServiceChurnBoundedResidency is the acceptance criterion of the
// bounded-memory service: one process serving sweeps for >= 20
// distinct programs keeps the summed resident artifact bytes bounded
// (pool engine cap x per-engine budget), not monotonically growing.
func TestServiceChurnBoundedResidency(t *testing.T) {
	const (
		maxEngines   = 3
		engineBudget = 64 << 10
	)
	srv, ts := newTestServer(t, Options{
		Pool: PoolOptions{MaxEngines: maxEngines, MaxArtifactBytes: engineBudget},
	})
	benchmarks := pwcet.Benchmarks()
	if len(benchmarks) < 20 {
		t.Fatalf("suite has only %d benchmarks", len(benchmarks))
	}
	bound := int64(maxEngines) * engineBudget
	var peak int64
	for _, bench := range benchmarks {
		resp := postSpec(t, ts.URL,
			fmt.Sprintf(`{"benchmarks":[%q],"pfails":[1e-4],"mechanisms":["none","srb"]}`, bench), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", bench, resp.StatusCode)
		}
		readRows(t, resp.Body)
		st := srv.pool.Stats()
		if st.ArtifactBytes > bound {
			t.Fatalf("after %s: resident %d bytes exceeds bound %d", bench, st.ArtifactBytes, bound)
		}
		if st.ArtifactBytes > peak {
			peak = st.ArtifactBytes
		}
	}
	st := srv.pool.Stats()
	if st.Engines > maxEngines {
		t.Errorf("resident engines %d exceed cap %d", st.Engines, maxEngines)
	}
	if st.Evictions == 0 {
		t.Errorf("%d distinct programs through %d slots evicted no engines", len(benchmarks), maxEngines)
	}
	if peak == 0 {
		t.Error("no artifact residency observed at all")
	}
	t.Logf("served %d programs: peak residency %d bytes (bound %d), pool %+v",
		len(benchmarks), peak, bound, st)
}
