// Package serve implements the HTTP analysis service behind
// cmd/pwcetd: a thin, testable front end over the pwcet analysis
// engine (internal/core) for the interactive, many-query workloads a
// design-space exploration produces.
//
// POST /v1/batch accepts the cmd/pwcet -batch sweep specification
// (internal/batchspec) and streams one compact JSON row per line
// (NDJSON) as results complete, in the specification's grid order —
// byte-for-byte the rows `pwcet -batch spec.json -ndjson` prints for
// the same spec. Under the handlers sits an engine pool keyed by
// program fingerprint (warm engines are reused across requests) with
// whole-engine LRU eviction under pool pressure and a per-engine
// artifact byte budget (core.EngineOptions.MaxArtifactBytes), so a
// long-lived server holds its memory flat no matter how many distinct
// sweeps it serves.
//
// The server enforces API-key auth (Authorization: Bearer <key>),
// per-key token-bucket rate limits, a request body size limit and a
// per-batch time limit, and drains gracefully: after Drain, new
// requests get 503 while in-flight streams run to completion.
//
// GET /v1/benchmarks lists the built-in suite; GET /metrics exposes
// the request/row/pool counters and per-stage latency histograms as
// JSON; GET /healthz reports readiness; /debug/pprof serves the
// standard profiles.
package serve

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
	"time"

	"repro/internal/batchspec"
	"repro/internal/core"
	"repro/internal/faultpoint"
	"repro/internal/malardalen"
)

// Options configures a Server.
type Options struct {
	// APIKeys are the accepted bearer tokens. Empty leaves the server
	// open — acceptable for tests and loopback use only; cmd/pwcetd
	// refuses to listen on non-loopback addresses without keys.
	APIKeys []string
	// RatePerSecond is each key's sustained request rate through a
	// token bucket of the given Burst (Burst 0 means 1). <= 0 disables
	// rate limiting. The unauthenticated (open) mode shares one bucket.
	RatePerSecond float64
	Burst         int
	// MaxBodyBytes caps the request body; 0 defaults to 1 MiB (a sweep
	// specification is a few hundred bytes). Oversized bodies get 413.
	MaxBodyBytes int64
	// BatchTimeout bounds one batch request's wall-clock time; a batch
	// that exceeds it ends with an NDJSON error line. 0 = unlimited.
	// The deadline also cancels the underlying engine computation (via
	// the request context), so a timed-out batch stops burning CPU.
	BatchTimeout time.Duration
	// SoftDeadline, when positive, arms the engine's degraded mode for
	// every batch query (core.Query.SoftDeadline): a query that cannot
	// finish within the deadline retries under a geometrically tighter
	// support cap and streams a row flagged "degraded": true — a sound,
	// less tight upper bound — instead of timing the whole batch out.
	// 0 keeps full precision for every row.
	SoftDeadline time.Duration
	// Workers is the default engine worker bound for specs that leave
	// their workers field at 0.
	Workers int
	// Pool configures engine pooling (see PoolOptions).
	Pool PoolOptions
	// Now injects a clock for rate-limit tests; nil uses time.Now.
	Now func() time.Time
}

// Server is the handler state. Create with New, expose via Handler,
// stop with Drain.
type Server struct {
	opt  Options
	pool *Pool
	met  *metrics

	mu       sync.Mutex
	buckets  map[string]*bucket
	draining bool
	inflight int
	idle     chan struct{}
}

// New builds a Server. The zero Options value yields an open,
// unlimited server with defaults suitable for tests.
func New(opt Options) *Server {
	if opt.MaxBodyBytes <= 0 {
		opt.MaxBodyBytes = 1 << 20
	}
	if opt.Burst <= 0 {
		opt.Burst = 1
	}
	if opt.Now == nil {
		opt.Now = time.Now
	}
	return &Server{
		opt:     opt,
		pool:    NewPool(opt.Pool),
		met:     &metrics{},
		buckets: make(map[string]*bucket),
	}
}

// Handler returns the route mux:
//
//	POST /v1/batch       run a sweep spec, stream NDJSON rows
//	GET  /v1/benchmarks  list the built-in benchmarks
//	GET  /metrics        JSON counters and latency histograms
//	GET  /healthz        200 ok / 503 draining
//	     /debug/pprof/*  standard pprof profiles
//
// Every route runs inside the panic-isolation middleware: a panicking
// handler is recovered into a 500 (when the response has not started
// streaming) and counted in /metrics as panic_recovered — one bad
// request can never take the daemon down.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("GET /v1/benchmarks", s.handleBenchmarks)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s.recoverPanics(mux)
}

// startedWriter tracks whether the response has started, so the panic
// middleware knows whether a 500 can still be written. It forwards
// Flush to keep the NDJSON streaming path working through the wrapper.
type startedWriter struct {
	http.ResponseWriter
	started bool
}

func (w *startedWriter) WriteHeader(code int) {
	w.started = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *startedWriter) Write(b []byte) (int, error) {
	w.started = true
	return w.ResponseWriter.Write(b)
}

func (w *startedWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// recoverPanics is the per-request panic boundary of the service. Note
// the engine has its own boundary (core recovers analysis panics into
// *core.PanicError and poisons the engine), so what reaches here is
// handler-level bugs; either way the daemon stays up, the panic is
// counted, and a 500 is returned when nothing has been streamed yet.
// http.ErrAbortHandler passes through — it is net/http's own sentinel
// for deliberately dropping a connection, not a failure.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &startedWriter{ResponseWriter: w}
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			s.met.panicsRecovered.add(1)
			if !sw.started {
				errorJSON(sw, http.StatusInternalServerError, "internal error: %v", rec)
			}
		}()
		next.ServeHTTP(sw, r)
	})
}

// Drain stops accepting new batch requests (503) and waits for the
// in-flight ones to finish streaming, or for ctx to expire.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	if s.inflight == 0 {
		s.mu.Unlock()
		return nil
	}
	if s.idle == nil {
		s.idle = make(chan struct{})
	}
	idle := s.idle
	s.mu.Unlock()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// track registers an in-flight request; the returned release must be
// called exactly once. ok is false while draining.
func (s *Server) track() (release func(), ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, false
	}
	s.inflight++
	return func() {
		s.mu.Lock()
		s.inflight--
		if s.inflight == 0 && s.idle != nil {
			close(s.idle)
			s.idle = nil
		}
		s.mu.Unlock()
	}, true
}

// errorJSON writes a JSON error body with the given status.
func errorJSON(w http.ResponseWriter, status int, format string, a ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, a...)})
}

// authenticate resolves the request's API key. With no configured keys
// the server is open and all requests share the anonymous identity.
func (s *Server) authenticate(r *http.Request) (key string, ok bool) {
	if len(s.opt.APIKeys) == 0 {
		return "", true
	}
	token := r.Header.Get("Authorization")
	token, found := strings.CutPrefix(token, "Bearer ")
	if !found {
		return "", false
	}
	for _, k := range s.opt.APIKeys {
		if subtle.ConstantTimeCompare([]byte(k), []byte(token)) == 1 {
			return k, true
		}
	}
	return "", false
}

// bucket is one key's token bucket.
type bucket struct {
	tokens float64
	last   time.Time
}

// allow takes one token from the key's bucket, refilled at
// RatePerSecond up to Burst.
func (s *Server) allow(key string) bool {
	if s.opt.RatePerSecond <= 0 {
		return true
	}
	now := s.opt.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.buckets[key]
	if b == nil {
		b = &bucket{tokens: float64(s.opt.Burst), last: now}
		s.buckets[key] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * s.opt.RatePerSecond
	if max := float64(s.opt.Burst); b.tokens > max {
		b.tokens = max
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// handleHealthz reports readiness: 200 while serving, 503 once
// draining.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.met.requests.add(1)
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		errorJSON(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
}

// handleMetrics renders the counters, histograms and pool stats.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.met.requests.add(1)
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.met.snapshot(s.pool.Stats()))
}

// benchmarkJSON is one /v1/benchmarks entry.
type benchmarkJSON struct {
	Name      string `json:"name"`
	CodeBytes int    `json:"code_bytes"`
	Blocks    int    `json:"blocks"`
	Loops     int    `json:"loops"`
}

// handleBenchmarks lists the built-in suite.
func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	s.met.requests.add(1)
	if _, ok := s.authenticate(r); !ok {
		s.met.rejectedAuth.add(1)
		errorJSON(w, http.StatusUnauthorized, "missing or invalid API key")
		return
	}
	var out []benchmarkJSON
	for _, name := range malardalen.Names() {
		p := malardalen.MustGet(name)
		out = append(out, benchmarkJSON{
			Name: name, CodeBytes: p.CodeBytes(), Blocks: len(p.Blocks), Loops: len(p.Loops),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out)
}

// handleBatch runs a sweep specification and streams its rows as
// NDJSON in grid order (benchmarks, then pfails x mechanisms x
// targets) — the byte-identical order of cmd/pwcet -batch -ndjson. An
// analysis error or timeout terminates the stream with a final
// {"error": ...} line; rows already streamed remain valid.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := s.opt.Now()
	s.met.requests.add(1)

	release, accepting := s.track()
	if !accepting {
		s.met.rejectedDraining.add(1)
		errorJSON(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	defer release()

	key, ok := s.authenticate(r)
	if !ok {
		s.met.rejectedAuth.add(1)
		errorJSON(w, http.StatusUnauthorized, "missing or invalid API key")
		return
	}
	if !s.allow(key) {
		s.met.rejectedRate.add(1)
		w.Header().Set("Retry-After", "1")
		errorJSON(w, http.StatusTooManyRequests, "rate limit exceeded")
		return
	}

	spec, err := batchspec.Parse(http.MaxBytesReader(w, r.Body, s.opt.MaxBodyBytes))
	if err != nil {
		s.met.rejectedSpec.add(1)
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			errorJSON(w, http.StatusRequestEntityTooLarge, "spec larger than %d bytes", tooLarge.Limit)
			return
		}
		errorJSON(w, http.StatusBadRequest, "batch spec: %v", err)
		return
	}
	s.met.specParse.observe(s.opt.Now().Sub(start))
	s.met.batches.add(1)

	var deadline time.Time
	rctx := r.Context()
	if s.opt.BatchTimeout > 0 {
		deadline = start.Add(s.opt.BatchTimeout)
		// The deadline also cancels the engine computation itself, so a
		// timed-out batch stops consuming CPU instead of racing on with
		// nobody listening. (The emit check below uses the injectable
		// clock; this context uses real time — both end the stream.)
		var cancel context.CancelFunc
		rctx, cancel = context.WithTimeout(rctx, s.opt.BatchTimeout)
		defer cancel()
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Pwcet-Rows", fmt.Sprint(spec.NumRows()))
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	// emit writes one NDJSON line and reports whether streaming can
	// continue (false on client disconnect or timeout).
	clientGone := r.Context().Done()
	emit := func(v any) bool {
		if faultpoint.Enabled && faultpoint.Fires(faultpoint.SiteDisconnect) {
			// Chaos injection: behave exactly as if the client vanished
			// mid-stream — truncate the NDJSON stream and let the
			// disconnect path drain the batch and return the engine.
			s.met.clientDisconnects.add(1)
			return false
		}
		select {
		case <-clientGone:
			s.met.clientDisconnects.add(1)
			return false
		default:
		}
		if !deadline.IsZero() && s.opt.Now().After(deadline) {
			s.met.batchErrors.add(1)
			s.met.timeouts.add(1)
			enc.Encode(map[string]string{"error": "batch timeout exceeded"})
			return false
		}
		if err := enc.Encode(v); err != nil {
			s.met.clientDisconnects.add(1)
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}

	for _, name := range spec.Benchmarks {
		prog := malardalen.MustGet(name)
		prep := s.opt.Now()
		handle, err := s.pool.Acquire(prog, spec.EngineOptions(s.opt.Workers))
		if err != nil {
			s.met.batchErrors.add(1)
			emit(map[string]string{"error": fmt.Sprintf("%s: %v", name, err)})
			return
		}
		s.met.enginePrep.observe(s.opt.Now().Sub(prep))

		queries := spec.Queries()
		if s.opt.SoftDeadline > 0 {
			for i := range queries {
				queries[i].SoftDeadline = s.opt.SoftDeadline
			}
		}
		ch := handle.Engine().AnalyzeBatchChanContext(rctx, queries)
		// Reassemble completion order into grid order: each row streams
		// as soon as it and all lower-index rows are done. The channel
		// is buffered for the whole batch, so when the client vanishes
		// mid-stream the producers never block — the background drain
		// below just discards the leftovers and returns the engine to
		// the pool, which therefore cannot wedge.
		done := make([]*core.BatchResult, len(queries))
		next := 0
		streaming := true
		for br := range ch {
			done[br.Index] = &br
			for streaming && next < len(done) && done[next] != nil {
				res := done[next]
				if res.Err != nil {
					s.met.batchErrors.add(1)
					switch {
					case errors.Is(res.Err, context.Canceled):
						s.met.canceled.add(1)
					case errors.Is(res.Err, context.DeadlineExceeded):
						s.met.timeouts.add(1)
					}
					var pe *core.PanicError
					if errors.As(res.Err, &pe) {
						// The engine recovered an analysis panic and
						// poisoned itself; Release below drops it from the
						// pool so it is never handed out again.
						s.met.panicsRecovered.add(1)
					}
					emit(map[string]string{"error": fmt.Sprintf("%s: %v", name, res.Err)})
					streaming = false
					break
				}
				if res.Result.Degraded {
					s.met.degradedRows.add(1)
				}
				if !emit(batchspec.RowOf(name, res.Query, res.Result)) {
					streaming = false
					break
				}
				s.met.rowsStreamed.add(1)
				s.met.rowLatency.observe(s.opt.Now().Sub(start))
				next++
			}
			if !streaming {
				break
			}
		}
		if !streaming {
			go func() {
				for range ch {
				}
				handle.Release()
			}()
			return
		}
		handle.Release()
	}
	s.met.batchLatency.observe(s.opt.Now().Sub(start))
}
