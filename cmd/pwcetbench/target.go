package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/batchspec"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/malardalen"
	"repro/internal/program"
	"repro/internal/serve"
)

// checker counts the rows a run attempted and the rows that failed. It
// keeps the first answer to every distinct query: every repeat must be
// byte-identical to it.
type checker struct {
	mu        sync.Mutex
	first     map[string][]byte
	attempted int64
	failed    int64
	example   string
}

func newChecker() *checker { return &checker{first: make(map[string][]byte)} }

// row checks one delivered row. why is non-empty when a row-local check
// already failed it. It reports whether the row passed.
func (c *checker) row(key string, got []byte, why string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if why == "" {
		if want, ok := c.first[key]; !ok {
			c.first[key] = got
		} else if !bytes.Equal(got, want) {
			why = fmt.Sprintf("repeat differs from first answer: got %s, want %s", got, want)
		}
	}
	if why != "" {
		c.failLocked(1, key+": "+why)
		return false
	}
	return true
}

// pass counts n attempted rows that passed.
func (c *checker) pass(n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted += n
}

// fail counts n attempted rows that failed before they could be checked
// one by one: an engine or transport error, or missing rows.
func (c *checker) fail(n int64, why string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted += n
	c.failLocked(n, why)
}

// recheck fails n rows already counted as attempted: a later check (the
// replay, the oracle) found them wrong.
func (c *checker) recheck(n int64, why string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failLocked(n, why)
}

func (c *checker) failLocked(n int64, why string) {
	c.failed += n
	if c.example == "" {
		c.example = why
	}
}

func (c *checker) totals() (attempted, failed int64, example string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.attempted, c.failed, c.example
}

// goldenAnchors checks the published adpcm pWCETs on the paper cache at
// pfail 1e-4 and target 1e-15: none, RW and SRB.
func goldenAnchors(c *checker) {
	want := map[cache.Mechanism]int64{cache.MechanismNone: 314077, cache.MechanismRW: 218977, cache.MechanismSRB: 225877}
	e, err := core.NewEngine(malardalen.MustGet("adpcm"), core.EngineOptions{})
	if err != nil {
		c.fail(3, "golden anchors: "+err.Error())
		return
	}
	for _, m := range []cache.Mechanism{cache.MechanismNone, cache.MechanismRW, cache.MechanismSRB} {
		res, err := e.Analyze(core.Query{Cache: cache.PaperConfig(), Pfail: 1e-4, Mechanism: m})
		switch {
		case err != nil:
			c.fail(1, fmt.Sprintf("golden anchor adpcm %v: %v", m, err))
		case res.PWCET != want[m]:
			c.fail(1, fmt.Sprintf("golden anchor adpcm %v: pWCET %d, want %d", m, res.PWCET, want[m]))
		default:
			c.pass(1)
		}
	}
}

// target runs the requests of one workload.
type target interface {
	// do runs one request; tr is nil outside the traced pass.
	do(req request, id int64, tr *tracer) outcome
	close()
}

// outcome is what one request delivered.
type outcome struct {
	rows    int           // rows delivered that passed every check
	first   time.Duration // submit to first row
	elapsed time.Duration // submit to last row
	// Traced requests only.
	cpu     time.Duration // process CPU time over the engine call
	layers  time.Duration // replayed and directly timed layer time
	events  []core.ArtifactEvent
	mem     core.MemStats // a fresh engine's accounting after the request
	ttfb    time.Duration // serve: submit to response headers
	rowGaps time.Duration // serve: summed gaps between consecutive rows
	gaps    int
}

// inproc runs requests directly against core engines and delivers rows
// in the wire format through batchspec, as the CLI's batch mode does.
type inproc struct {
	progs   map[string]*program.Program
	engines map[string]*core.Engine
	check   *checker

	// In a traced run the engines' Hook collects artifact events, and
	// the replay keeps its own memo per long-lived engine.
	hooked       bool
	programBuild time.Duration
	engineBuilds []time.Duration
	counts       replayCounts
	memos        map[string]*replayMemo
	evMu         sync.Mutex
	events       []core.ArtifactEvent
}

func (t *inproc) hook(ev core.ArtifactEvent) {
	t.evMu.Lock()
	t.events = append(t.events, ev)
	t.evMu.Unlock()
}

func (t *inproc) takeEvents() []core.ArtifactEvent {
	t.evMu.Lock()
	defer t.evMu.Unlock()
	ev := t.events
	t.events = nil
	return ev
}

func (t *inproc) newEngine(name string) (*core.Engine, error) {
	opt := core.EngineOptions{}
	if t.hooked {
		opt.Hook = t.hook
	}
	start := time.Now()
	e, err := core.NewEngine(t.progs[name], opt)
	if t.hooked {
		t.engineBuilds = append(t.engineBuilds, time.Since(start))
	}
	return e, err
}

// setupInproc builds the workload's programs and, for warm workloads,
// its long-lived engines, answering the warm-up queries on each.
// hooked installs the artifact Hook a traced run replays from.
func setupInproc(w *workload, check *checker, hooked bool) (*inproc, error) {
	t := &inproc{progs: make(map[string]*program.Program), engines: make(map[string]*core.Engine),
		check: check, hooked: hooked, memos: make(map[string]*replayMemo)}
	start := time.Now()
	for _, name := range w.programs {
		p, err := malardalen.Get(name)
		if err != nil {
			return nil, err
		}
		t.progs[name] = p
	}
	t.programBuild = time.Since(start)
	if !w.longLived {
		return t, nil
	}
	for _, name := range w.programs {
		e, err := t.newEngine(name)
		if err != nil {
			return nil, err
		}
		if _, err := e.AnalyzeBatch(w.warm); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", name, err)
		}
		t.engines[name] = e
	}
	t.takeEvents()
	return t, nil
}

func (t *inproc) close() {}

// memStats sums the accounting of the long-lived engines.
func (t *inproc) memStats() core.MemStats {
	var sum core.MemStats
	for _, e := range t.engines {
		ms := e.MemStats()
		sum.Hits += ms.Hits
		sum.Misses += ms.Misses
		sum.Evictions += ms.Evictions
		sum.ArtifactBytes += ms.ArtifactBytes
	}
	return sum
}

// do runs one request. When traced, the request is replayed through the
// layer functions after the engine call, outside its timing.
func (t *inproc) do(req request, id int64, tr *tracer) outcome {
	var o outcome
	rows := make([][]byte, len(req.queries))
	results := make([]*core.Result, len(req.queries))
	errs := make([]error, len(req.queries))
	var encodes []time.Time
	from := mark{wall: time.Now()}
	if tr != nil {
		from.cpu = cpuTime()
	}
	start := from.wall
	eng := t.engines[req.prog]
	if req.fresh {
		var err error
		if eng, err = t.newEngine(req.prog); err != nil {
			t.check.fail(int64(req.rows), fmt.Sprintf("%s: %v", req.prog, err))
			return o
		}
	}
	eng.AnalyzeBatchStream(req.queries, func(br core.BatchResult) {
		if o.first == 0 {
			o.first = time.Since(start)
		}
		if br.Err != nil {
			errs[br.Index] = br.Err
			return
		}
		e0 := time.Now()
		b, err := json.Marshal(batchspec.RowOf(req.prog, br.Query, br.Result))
		if tr != nil {
			encodes = append(encodes, e0, time.Now())
		}
		rows[br.Index], results[br.Index], errs[br.Index] = b, br.Result, err
	})
	to := mark{wall: time.Now()}
	o.elapsed = to.wall.Sub(start)
	if t.hooked {
		o.events = t.takeEvents()
	}
	var parent int64
	if tr != nil {
		to.cpu = cpuTime()
		o.cpu = to.cpu - from.cpu
		if req.fresh {
			o.mem = eng.MemStats()
		}
		parent = tr.record("request", id, 0, from, to)
		// Rows are encoded on one goroutine while engine workers run
		// beside it, so an encode's wall time stands in for its CPU time.
		for i := 0; i < len(encodes); i += 2 {
			d := encodes[i+1].Sub(encodes[i])
			tr.record("batchspec.encode", id, parent, mark{wall: encodes[i]}, mark{wall: encodes[i+1], cpu: d})
			o.layers += d
		}
	}
	for i, q := range req.queries {
		why := ""
		switch {
		case errs[i] != nil:
			why = errs[i].Error()
		case results[i].PWCET < results[i].FaultFreeWCET:
			why = fmt.Sprintf("pWCET %d below fault-free WCET %d", results[i].PWCET, results[i].FaultFreeWCET)
		}
		if t.check.row(queryKey(req.prog, q), rows[i], why) {
			o.rows++
		}
	}
	if tr != nil {
		o.layers += t.replayRequest(req, id, parent, tr, o.events, rows)
	}
	return o
}

// replayRequest replays a traced request, fails every row whose
// replayed bytes differ from the engine's, and returns the replayed
// layers' CPU time.
func (t *inproc) replayRequest(req request, id, parent int64, tr *tracer, events []core.ArtifactEvent, rows [][]byte) time.Duration {
	m := t.memos[req.prog]
	if m == nil || req.fresh {
		m = newReplayMemo(t.progs[req.prog])
		if !req.fresh {
			t.memos[req.prog] = m
		}
	}
	r := &replayer{tr: tr, req: id, parent: parent, fired: make(map[core.ArtifactEvent]bool), counts: &t.counts}
	for _, ev := range events {
		r.fired[ev] = true
	}
	got := r.replay(m, req.fresh, req.prog, req.queries)
	if r.err != nil {
		t.check.recheck(int64(len(rows)), fmt.Sprintf("replay %s: %v", req.prog, r.err))
		return r.cpu
	}
	for i := range rows {
		if !bytes.Equal(got[i], rows[i]) {
			t.check.recheck(1, fmt.Sprintf("replay differs from engine: got %s, want %s", got[i], rows[i]))
		}
	}
	return r.cpu
}

// server runs requests against an in-process pwcetd handler over
// loopback HTTP.
type server struct {
	hs    *http.Server
	url   string
	hc    *http.Client
	check *checker
	done  chan error

	// mu guards the first response to every spec, kept for the oracle
	// comparison after the measured window.
	mu        sync.Mutex
	responses map[string][][]byte
}

// setupServer starts the service on a loopback port and waits until it
// answers.
func setupServer(clients int, check *checker) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Options{Pool: serve.PoolOptions{MaxEngines: serveMaxEngines, MaxArtifactBytes: serveArtifactBudget}})
	t := &server{
		check:     check,
		hs:        &http.Server{Handler: srv.Handler()},
		url:       "http://" + ln.Addr().String(),
		hc:        &http.Client{Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}},
		done:      make(chan error, 1),
		responses: make(map[string][][]byte),
	}
	go func() { t.done <- t.hs.Serve(ln) }()
	resp, err := t.hc.Get(t.url + "/healthz")
	if err != nil {
		t.close()
		return nil, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.close()
		return nil, fmt.Errorf("healthz: %s", resp.Status)
	}
	return t, nil
}

// close stops the service and waits for its serving goroutine.
func (t *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	t.hs.Shutdown(ctx)
	t.hc.CloseIdleConnections()
	<-t.done
}

// do posts one spec and reads its NDJSON stream row by row.
func (t *server) do(req request, id int64, tr *tracer) outcome {
	var o outcome
	start := time.Now()
	resp, err := t.hc.Post(t.url+"/v1/batch", "application/json", strings.NewReader(req.spec))
	if err != nil {
		t.check.fail(int64(req.rows), "post: "+err.Error())
		return o
	}
	defer resp.Body.Close()
	o.ttfb = time.Since(start)
	var lines [][]byte
	br := bufio.NewReader(resp.Body)
	last := start
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			now := time.Now()
			if len(lines) == 0 {
				o.first = now.Sub(start)
			} else {
				o.rowGaps += now.Sub(last)
				o.gaps++
			}
			last = now
			lines = append(lines, bytes.TrimSuffix(line, []byte("\n")))
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.check.fail(int64(req.rows), "read: "+err.Error())
			return o
		}
	}
	end := time.Now()
	o.elapsed = end.Sub(start)
	if tr != nil {
		parent := tr.record("request", id, 0, mark{wall: start}, mark{wall: end})
		tr.record("serve.ttfb", id, parent, mark{wall: start}, mark{wall: start.Add(o.ttfb)})
	}
	if resp.StatusCode != http.StatusOK {
		t.check.fail(int64(req.rows), fmt.Sprintf("HTTP %s: %s", resp.Status, bytes.Join(lines, nil)))
		return o
	}
	t.mu.Lock()
	if _, ok := t.responses[req.spec]; !ok {
		t.responses[req.spec] = lines
	}
	t.mu.Unlock()
	for i, line := range lines {
		var row batchspec.Row
		why := ""
		if err := json.Unmarshal(line, &row); err != nil || row.Benchmark == "" {
			why = fmt.Sprintf("not a row: %s", line)
		} else if row.PWCET < row.FaultFreeWCET {
			why = fmt.Sprintf("pWCET %d below fault-free WCET %d", row.PWCET, row.FaultFreeWCET)
		}
		if t.check.row(fmt.Sprintf("%s#%d", req.spec, i), line, why) {
			o.rows++
		}
	}
	if missing := req.rows - len(lines); missing > 0 {
		t.check.fail(int64(missing), fmt.Sprintf("%d rows missing for %s", missing, req.spec))
	}
	return o
}

// verifyOracle compares the first response to every spec served with
// the rows an in-process engine computes for the same spec. It runs
// after the measured window; repeats were already compared with the
// first response as they arrived.
func (t *server) verifyOracle() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	specs := make([]string, 0, len(t.responses))
	for spec := range t.responses {
		specs = append(specs, spec)
	}
	sort.Strings(specs)
	engines := make(map[string]*core.Engine)
	for _, spec := range specs {
		want, err := oracleRows(spec, engines)
		if err != nil {
			return err
		}
		compareRows(t.check, spec, t.responses[spec], want)
	}
	return nil
}

// compareRows fails every served row that differs from the oracle's.
func compareRows(c *checker, spec string, got, want [][]byte) {
	for i := range want {
		var g []byte
		if i < len(got) {
			g = got[i]
		}
		if !bytes.Equal(g, want[i]) {
			c.recheck(1, fmt.Sprintf("served row %d of %s differs from in-process: got %s, want %s", i, spec, g, want[i]))
		}
	}
}

// oracleRows computes a spec's rows in process through batchspec,
// sharing one unbounded engine per program across specs.
func oracleRows(body string, engines map[string]*core.Engine) ([][]byte, error) {
	spec, err := batchspec.Parse(strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	var rows [][]byte
	for _, name := range spec.Benchmarks {
		e := engines[name]
		if e == nil {
			if e, err = core.NewEngine(malardalen.MustGet(name), spec.EngineOptions(0)); err != nil {
				return nil, err
			}
			engines[name] = e
		}
		queries := spec.Queries()
		results, err := e.AnalyzeBatch(queries)
		if err != nil {
			return nil, err
		}
		for _, r := range batchspec.Rows(name, queries, results) {
			b, err := json.Marshal(r)
			if err != nil {
				return nil, err
			}
			rows = append(rows, b)
		}
	}
	return rows, nil
}

// serveMetrics is the part of GET /metrics the traced run reads.
type serveMetrics struct {
	Pool struct {
		Hits              float64 `json:"hits"`
		Misses            float64 `json:"misses"`
		Evictions         float64 `json:"evictions"`
		ArtifactBytes     float64 `json:"artifact_bytes"`
		ArtifactEvictions float64 `json:"artifact_evictions"`
	} `json:"engine_pool"`
	SpecParse    histogram `json:"spec_parse_latency"`
	EnginePrep   histogram `json:"engine_prep_latency"`
	BatchLatency histogram `json:"batch_latency"`
}

type histogram struct {
	Count float64 `json:"count"`
	SumMs float64 `json:"sum_ms"`
}

func (t *server) metrics() (serveMetrics, error) {
	var m serveMetrics
	resp, err := t.hc.Get(t.url + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("metrics: %s", resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&m)
	return m, err
}
