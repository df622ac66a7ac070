package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spans    string
}

func (c config) window() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// warmup is the unmeasured lead-in before the window: 2 s, or a fifth
// of a shorter window.
func (c config) warmup() time.Duration { return min(2*time.Second, c.window()/5) }

// Setup is repeated and setup_s reports the median: at least
// setupMinReps times, and more, up to setupMaxReps, while the total is
// under setupMinTotal, so that cheap setups are timed often enough to
// give a steady median.
const (
	setupMinReps  = 3
	setupMaxReps  = 25
	setupMinTotal = 500 * time.Millisecond
)

// record is one completed request.
type record struct {
	req  request
	o    outcome
	sent time.Time
}

// drive runs the workload's clients closed-loop: each takes the next
// request only when its previous one has delivered its last row. It
// returns when every client has stopped — at the deadline, or when next
// has no more requests.
// A non-nil speedometer may hold the clients between requests.
func drive(tgt target, clients int, next func() (request, bool), deadline time.Time, ids *atomic.Int64, tr *tracer, sp *speedometer) []record {
	var mu sync.Mutex
	var recs []record
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for deadline.IsZero() || time.Now().Before(deadline) {
				req, ok := next()
				if !ok {
					return
				}
				if sp != nil {
					sp.enter()
				}
				sent := time.Now()
				o := tgt.do(req, ids.Add(1), tr)
				if sp != nil {
					sp.leave()
				}
				mu.Lock()
				recs = append(recs, record{req: req, o: o, sent: sent})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return recs
}

func newTarget(w *workload, check *checker, traced bool) (target, error) {
	if w.serve {
		return setupServer(w.clients, check)
	}
	return setupInproc(w, check, traced)
}

// setup builds the workload's target and returns its median setup time.
// A traced run sets up once; its setup time is not reported.
func setup(w *workload, check *checker, traced bool) (target, time.Duration, int, error) {
	var times []time.Duration
	var total time.Duration
	for {
		runtime.GC()
		start := time.Now()
		tgt, err := newTarget(w, check, traced)
		if err != nil {
			return nil, 0, 0, err
		}
		d := time.Since(start)
		times = append(times, d)
		total += d
		if traced || len(times) >= setupMaxReps || len(times) >= setupMinReps && total >= setupMinTotal {
			return tgt, time.Duration(percentile(times, 0.5) * float64(time.Millisecond)), len(times), nil
		}
		tgt.close()
	}
}

// runChild runs one workload in this process and prints its result.
func runChild(cfg config, stdout, stderr io.Writer) int {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		fmt.Fprintln(stderr, "pwcetbench:", err)
		return 2
	}
	procs := gomaxprocs()
	runtime.GOMAXPROCS(procs)

	check := newChecker()
	goldenAnchors(check)
	// The kernel is timed alone just before and just after setup.
	kernel := newRefKernel()
	kernelTimes := kernel.samples(5)
	tgt, setupTime, reps, err := setup(w, check, cfg.trace)
	setupFactor := factor(append(kernelTimes, kernel.samples(5)...))
	if err != nil {
		fmt.Fprintf(stderr, "pwcetbench: %s: setup: %v\n", w.name, err)
		return 1
	}
	seq := newSequence(w, cfg.seed)
	next := func() (request, bool) { return seq.next(), true }
	var ids atomic.Int64
	drive(tgt, w.clients, next, time.Now().Add(cfg.warmup()), &ids, nil, nil)

	var values map[string]float64
	var recs []record
	var tr *tracer
	raw := ""
	if cfg.trace {
		values, recs, tr, err = traced(tgt, w, cfg, next, &ids)
	} else {
		var asMeasured map[string]float64
		var speed float64
		values, asMeasured, recs, speed, err = measured(tgt, w, cfg, next, &ids, kernel)
		if values != nil {
			values["setup_s"] = setupTime.Seconds() * setupFactor
			raw = fmt.Sprintf("# raw: setup_s=%g rows_per_s=%g req_p50_ms=%g req_p90_ms=%g first_row_p50_ms=%g cpu_ms_per_row=%g speed_factor=%g setup_speed_factor=%g\n",
				setupTime.Seconds(), asMeasured["rows_per_s"], asMeasured["req_p50_ms"], asMeasured["req_p90_ms"],
				asMeasured["first_row_p50_ms"], asMeasured["cpu_ms_per_row"], speed, setupFactor)
		}
	}
	if err == nil {
		if s, ok := tgt.(*server); ok {
			err = s.verifyOracle()
		}
	}
	tgt.close()
	if err == nil && tr != nil && cfg.spans != "" {
		err = tr.write(cfg.spans)
	}
	if err != nil {
		fmt.Fprintf(stderr, "pwcetbench: %s: %v\n", w.name, err)
		return 1
	}

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	attempted, failed, example := check.totals()
	rows := 0
	for _, r := range recs {
		rows += r.o.rows
	}
	fmt.Fprintf(stdout, "# %s seed=%d seconds=%g trace=%v gomaxprocs=%d nproc=%d clients=%d loop=closed setup_reps=%d requests=%d rows=%d\n%s",
		w.name, cfg.seed, cfg.seconds, cfg.trace, procs, runtime.NumCPU(), w.clients, reps, len(recs), rows, raw)
	b, err := json.Marshal(result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: fill(defs, values)})
	if err != nil {
		fmt.Fprintln(stderr, "pwcetbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if failed > 0 {
		fmt.Fprintf(stderr, "pwcetbench: %s: %d of %d rows failed; first: %s\n", w.name, failed, attempted, example)
		return 1
	}
	return 0
}

// measured runs the untraced window and derives the end-to-end metrics
// (all but setup_s, which the caller adds) at the reference speed and as
// measured, with the window's mean speed factor. A request's times are
// converted by the speed around its midpoint; the window's rate and CPU
// time by the mean speed over the window.
func measured(tgt target, w *workload, cfg config, next func() (request, bool), ids *atomic.Int64, kernel *refKernel) (values, raw map[string]float64, recs []record, speed float64, err error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	start := time.Now()
	sp := startSpeedometer(kernel, speedPeriod)
	recs = drive(tgt, w.clients, next, start.Add(cfg.window()), ids, nil, sp)
	s := sp.finish()
	wall := time.Since(start) - s.held
	cpu := cpuTime() - cpu0 - s.heldCPU
	runtime.ReadMemStats(&m1)
	st := s.speed
	if len(st.took) == 0 { // a window shorter than the sampling period
		st = speedTrace{at: []time.Time{time.Now()}, took: kernel.samples(1)}
		var rss float64
		rss, s.err = rssMiB()
		s.rss = []float64{rss}
	}
	if s.err != nil {
		return nil, nil, nil, 0, fmt.Errorf("reading the resident set size: %w", s.err)
	}

	rows := 0
	for _, r := range recs {
		rows += r.o.rows
	}
	if rows == 0 {
		return nil, nil, nil, 0, errors.New("no correct rows completed in the measured window")
	}
	elapsed := func(r record) time.Duration { return r.o.elapsed }
	first := func(r record) time.Duration { return r.o.first }
	atRef := func(of func(record) time.Duration) func(record) time.Duration {
		return func(r record) time.Duration {
			return time.Duration(float64(of(r)) * st.factorAt(r.sent.Add(r.o.elapsed/2)))
		}
	}
	raw = map[string]float64{
		"rows_per_s":       float64(rows) / wall.Seconds(),
		"req_p50_ms":       balancedPercentile(recs, 0.5, elapsed),
		"req_p90_ms":       balancedPercentile(recs, 0.9, elapsed),
		"first_row_p50_ms": balancedPercentile(recs, 0.5, first),
		"cpu_ms_per_row":   ms(cpu) / float64(rows),
	}
	speed = st.mean()
	values = map[string]float64{
		"rows_per_s":       raw["rows_per_s"] / speed,
		"req_p50_ms":       balancedPercentile(recs, 0.5, atRef(elapsed)),
		"req_p90_ms":       balancedPercentile(recs, 0.9, atRef(elapsed)),
		"first_row_p50_ms": balancedPercentile(recs, 0.5, atRef(first)),
		"cpu_ms_per_row":   raw["cpu_ms_per_row"] * speed,
		"alloc_kb_per_row": float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(rows),
		"rss_p90_mb":       quantile(s.rss, 0.9),
	}
	return values, raw, recs, speed, nil
}

// traced runs half the window untraced, then the same requests again
// traced, and derives the per-layer metrics from the traced pass. The
// untraced half prices the trace (trace.overhead).
func traced(tgt target, w *workload, cfg config, next func() (request, bool), ids *atomic.Int64) (map[string]float64, []record, *tracer, error) {
	recsA := drive(tgt, w.clients, next, time.Now().Add(cfg.window()/2), ids, nil, nil)
	var mu sync.Mutex
	pos := 0
	again := func() (request, bool) {
		mu.Lock()
		defer mu.Unlock()
		if pos == len(recsA) {
			return request{}, false
		}
		pos++
		return recsA[pos-1].req, true
	}
	tr := newTracer()
	firstID := ids.Load() + 1
	v := make(map[string]float64)
	var recs []record
	switch t := tgt.(type) {
	case *inproc:
		before := t.memStats()
		recs = drive(tgt, w.clients, again, time.Time{}, ids, tr, nil)
		inprocLayers(v, t, before, recs)
	case *server:
		var err error
		if recs, err = serveLayers(v, t, w, again, ids, tr); err != nil {
			return nil, nil, nil, err
		}
	}
	if len(recs) == 0 {
		return nil, nil, nil, errors.New("no requests completed in the traced pass")
	}
	n := float64(len(recs))
	sums := tr.sums(firstID)
	for _, name := range []string{"cfg.verify", "absint.classify", "absint.srb", "ipet.system", "ipet.wcet",
		"ipet.fmm", "ipet.hitbound", "fault.weight", "fault.binomial", "dist.convolve_all", "dist.fold",
		"dist.quantile", "batchspec.encode"} {
		v[name+"_ms"] = ms(sums[name].cpu) / n
	}
	for _, name := range []string{"absint.classify", "ipet.fmm", "dist.convolve_all"} {
		v[name+"_calls"] = float64(sums[name].n) / n
	}
	v["serve.ttfb_ms"] = ms(sums["serve.ttfb"].wall) / n
	v["trace.overhead"] = perRow(recs)/perRow(recsA) - 1
	rows := 0
	for _, r := range recs {
		rows += r.o.rows
	}
	v["batchspec.rows_per_req"] = float64(rows) / n
	return v, recs, tr, nil
}

// perRow is the request time per delivered row.
func perRow(recs []record) float64 {
	var t time.Duration
	rows := 0
	for _, r := range recs {
		t += r.o.elapsed
		rows += r.o.rows
	}
	return ms(t) / float64(max(rows, 1))
}

// inprocLayers derives the core-layer metrics of a traced in-process
// pass from the engine accounting and the Hook's artifact events.
func inprocLayers(v map[string]float64, t *inproc, before core.MemStats, recs []record) {
	n := float64(len(recs))
	rows := 0
	var mem core.MemStats
	var elapsed, cpu, layers time.Duration
	computed := make(map[string]int)
	for _, r := range recs {
		rows += r.o.rows
		elapsed += r.o.elapsed
		cpu += r.o.cpu
		layers += r.o.layers
		mem.Hits += r.o.mem.Hits
		mem.Misses += r.o.mem.Misses
		mem.Evictions += r.o.mem.Evictions
		mem.ArtifactBytes += r.o.mem.ArtifactBytes
		for _, ev := range r.o.events {
			computed[ev.Artifact.String()]++
		}
	}
	resident := float64(mem.ArtifactBytes) / n
	if len(t.engines) > 0 {
		after := t.memStats()
		mem.Hits, mem.Misses = after.Hits-before.Hits, after.Misses-before.Misses
		mem.Evictions = after.Evictions - before.Evictions
		resident = float64(after.ArtifactBytes)
	}
	v["program.build_ms"] = ms(t.programBuild)
	v["core.engine_build_ms"] = percentile(t.engineBuilds, 0.5)
	v["core.query_ms"] = ms(elapsed) / n
	v["core.self_ms"] = ms(cpu-layers) / n
	v["core.memo_hit_ratio"] = float64(mem.Hits) / float64(max(mem.Hits+mem.Misses, 1))
	v["core.evictions"] = float64(mem.Evictions)
	v["core.resident_mb"] = resident / (1 << 20)
	for _, a := range []core.Artifact{core.ArtifactClassification, core.ArtifactWCET, core.ArtifactFMMCore,
		core.ArtifactFMMColumn, core.ArtifactTransientBound} {
		v["core.compute."+a.String()] = float64(computed[a.String()]) * 1000 / float64(max(rows, 1))
	}
	v["trace.coverage"] = float64(layers) / float64(max(cpu, 1))
	c := t.counts
	v["fault.binomial_atoms"] = float64(c.binomialAtoms) / n
	v["dist.cap_bind_ratio"] = float64(c.capBound) / float64(max(c.convolveCalls, 1))
	v["dist.support_out"] = float64(c.supportOut) / float64(max(c.convolveCalls, 1))
}

// serveLayers runs the traced serve-churn pass. The service's engines
// sit inside its pool, out of the replay's reach, so its layer metrics
// come from client timings and /metrics deltas; a poller accumulates
// the artifact evictions of engines that may leave the pool later.
func serveLayers(v map[string]float64, s *server, w *workload, next func() (request, bool), ids *atomic.Int64, tr *tracer) ([]record, error) {
	m0, err := s.metrics()
	if err != nil {
		return nil, err
	}
	var evictions float64
	last := m0.Pool.ArtifactEvictions
	poll := func() error {
		m, err := s.metrics()
		if err != nil {
			return err
		}
		evictions += max(m.Pool.ArtifactEvictions-last, 0)
		last = m.Pool.ArtifactEvictions
		return nil
	}
	stop := make(chan struct{})
	polled := make(chan error, 1)
	go func() {
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				polled <- poll()
				return
			case <-tick.C:
				if err := poll(); err != nil {
					polled <- err
					<-stop
					return
				}
			}
		}
	}()
	recs := drive(s, w.clients, next, time.Time{}, ids, tr, nil)
	close(stop)
	if err := <-polled; err != nil {
		return nil, err
	}
	m1, err := s.metrics()
	if err != nil {
		return nil, err
	}
	var elapsed, gaps time.Duration
	gapN := 0
	for _, r := range recs {
		elapsed += r.o.elapsed
		gaps += r.o.rowGaps
		gapN += r.o.gaps
	}
	perCall := func(a, b histogram) float64 { return (b.SumMs - a.SumMs) / max(b.Count-a.Count, 1) }
	v["batchspec.parse_ms"] = perCall(m0.SpecParse, m1.SpecParse)
	v["serve.engine_prep_ms"] = perCall(m0.EnginePrep, m1.EnginePrep)
	v["serve.row_gap_ms"] = ms(gaps) / float64(max(gapN, 1))
	hits, misses := m1.Pool.Hits-m0.Pool.Hits, m1.Pool.Misses-m0.Pool.Misses
	v["serve.pool_hit_ratio"] = hits / max(hits+misses, 1)
	v["serve.pool_evictions"] = m1.Pool.Evictions - m0.Pool.Evictions
	v["serve.artifact_evictions"] = evictions
	v["core.evictions"] = evictions
	v["core.resident_mb"] = m1.Pool.ArtifactBytes / (1 << 20)
	v["trace.coverage"] = (m1.BatchLatency.SumMs - m0.BatchLatency.SumMs) / max(ms(elapsed), 1e-9)
	return recs, nil
}
