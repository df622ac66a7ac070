//go:build pwcetfault

// Integration coverage for the fault-point sites wired into the engine.
// These tests only build under -tags pwcetfault; the registry is
// process-global, so each test disarms everything it touched.

package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/fault"
	"repro/internal/faultpoint"
	"repro/internal/lp"
	"repro/internal/malardalen"
)

func TestInjectedEngineBuildFault(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	p := buildLoop(t)
	if err := faultpoint.Enable(faultpoint.SiteEngineBuild, "error,count=1"); err != nil {
		t.Fatal(err)
	}
	_, err := NewEngine(p, EngineOptions{})
	var ie *faultpoint.InjectedError
	if !errors.As(err, &ie) || ie.Site != faultpoint.SiteEngineBuild {
		t.Fatalf("NewEngine = %v, want injected %s fault", err, faultpoint.SiteEngineBuild)
	}
	// count=1 is exhausted: the retry builds cleanly.
	if _, err := NewEngine(p, EngineOptions{}); err != nil {
		t.Fatalf("NewEngine after fault window: %v", err)
	}
}

func TestInjectedAnalyzeError(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	p := buildLoop(t)
	eng, err := NewEngine(p, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := faultpoint.Enable(faultpoint.SiteAnalyze, "error,count=1"); err != nil {
		t.Fatal(err)
	}
	q := Query{Pfail: 1e-4, Mechanism: cache.MechanismSRB}
	_, err = eng.Analyze(q)
	var ie *faultpoint.InjectedError
	if !errors.As(err, &ie) {
		t.Fatalf("Analyze = %v, want *InjectedError", err)
	}
	// An injected error is an ordinary failure, not a panic: the engine
	// must stay healthy and answer the retry byte-identically to a
	// fresh engine.
	if eng.Poisoned() {
		t.Fatal("injected error poisoned the engine")
	}
	if ms := eng.MemStats(); ms.PinnedBytes != 0 {
		t.Fatalf("injected error stranded pins: %+v", ms)
	}
	got, err := eng.Analyze(q)
	if err != nil {
		t.Fatalf("Analyze after fault window: %v", err)
	}
	fresh, err := NewEngine(p, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "post-fault", want, got)
}

func TestInjectedAnalyzePanicPoisons(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	p := buildLoop(t)
	eng, err := NewEngine(p, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := faultpoint.Enable(faultpoint.SiteAnalyze, "panic,count=1"); err != nil {
		t.Fatal(err)
	}
	_, err = eng.Analyze(Query{Pfail: 1e-4})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Analyze = %v, want *PanicError", err)
	}
	if ie, ok := pe.Value.(*faultpoint.InjectedError); !ok || ie.Site != faultpoint.SiteAnalyze {
		t.Fatalf("PanicError.Value = %v, want the injected fault", pe.Value)
	}
	if !eng.Poisoned() {
		t.Fatal("injected panic did not poison the engine")
	}
	if _, err := eng.Analyze(Query{Pfail: 1e-4}); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("poisoned engine answered: %v", err)
	}
	requireAccounting(t, eng)
}

// TestInjectedWorkerPanicPoisons: a panic in a per-set solve on a
// worker goroutine (the FMM of a permanent query, the hit bounds of a
// transient one) poisons the engine like a panic on the query's own
// goroutine, instead of killing the process. The first slow-solve hit
// is the fault-free WCET solve on the query goroutine, so the panic
// fires in the first per-set solve. PanicError carries the injected
// value and the stack of the worker that panicked.
func TestInjectedWorkerPanicPoisons(t *testing.T) {
	cases := []struct {
		name, frame string
		q           Query
	}{
		{"permanent", "ipet.computeFMMRow", Query{Pfail: 1e-4}},
		{"transient", "ipet.computeHitBound", Query{Scenario: fault.Transient{Lambda: 1e-9}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Cleanup(faultpoint.Reset)
			eng, err := NewEngine(malardalen.MustGet("adpcm"), EngineOptions{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			baseline := runtime.NumGoroutine()
			if err := faultpoint.Enable(faultpoint.SiteSlowSolve, "panic,after=1,count=1"); err != nil {
				t.Fatal(err)
			}
			_, err = eng.Analyze(tc.q)
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("Analyze = %v, want *PanicError", err)
			}
			if ie, ok := pe.Value.(*faultpoint.InjectedError); !ok || ie.Site != faultpoint.SiteSlowSolve {
				t.Fatalf("PanicError.Value = %v, want the injected fault", pe.Value)
			}
			if !strings.Contains(string(pe.Stack), tc.frame) {
				t.Errorf("PanicError.Stack does not show the worker frame %s:\n%s", tc.frame, pe.Stack)
			}
			if !eng.Poisoned() {
				t.Fatal("a worker's panic did not poison the engine")
			}
			if ms := eng.MemStats(); ms.PinnedBytes != 0 {
				t.Errorf("the panic stranded pins: %+v", ms)
			}
			requireAccounting(t, eng)
			waitGoroutines(t, baseline)
		})
	}
}

// TestInjectedWorkerPanicFailsSharingGroups: the groups of a fanned-out
// batch share the fault-miss-map artifact whose computation panics. A
// group that joined that computation, or looked the artifact up after
// it, must fail too rather than read it as a zero value and report the
// fault-free WCET as its pWCET. Every row fails with the recovered
// panic or the poisoned engine's error, or, when it read no artifact
// of the panicked computation, equals a clean engine's row.
func TestInjectedWorkerPanicFailsSharingGroups(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	p := malardalen.MustGet("adpcm")
	var queries []Query
	for _, pfail := range []float64{1e-5, 1e-3} {
		for _, mech := range []cache.Mechanism{cache.MechanismNone, cache.MechanismSRB} {
			queries = append(queries, Query{Pfail: pfail, Mechanism: mech})
		}
	}
	clean, err := NewEngine(p, EngineOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := clean.AnalyzeBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(p, EngineOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := faultpoint.Enable(faultpoint.SiteSlowSolve, "panic,after=1,count=1"); err != nil {
		t.Fatal(err)
	}
	got := make([]BatchResult, len(queries))
	eng.AnalyzeBatchStream(queries, func(br BatchResult) { got[br.Index] = br })
	panics := 0
	for i, br := range got {
		var pe *PanicError
		switch {
		case errors.As(br.Err, &pe):
			panics++
		case errors.Is(br.Err, ErrPoisoned):
		case br.Err != nil:
			t.Errorf("row %d: %v, want the panic or ErrPoisoned", i, br.Err)
		default:
			requireSameResult(t, fmt.Sprintf("row %d", i), want[i], br.Result)
		}
	}
	if panics == 0 {
		t.Error("no row reports the recovered panic")
	}
	if ms := eng.MemStats(); ms.PinnedBytes != 0 {
		t.Errorf("the panic stranded pins: %+v", ms)
	}
	requireAccounting(t, eng)
}

// TestInjectedForceEvictByteIdentity: the core memoization contract
// under chaos — evicting every unpinned artifact on every eviction
// check still yields byte-identical results, because artifacts are pure
// functions of their keys.
func TestInjectedForceEvictByteIdentity(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	p := buildLoop(t)
	queries := []Query{
		{Pfail: 1e-5, Mechanism: cache.MechanismNone},
		{Pfail: 1e-4, Mechanism: cache.MechanismRW},
		{Pfail: 1e-3, Mechanism: cache.MechanismSRB},
	}
	ref, err := NewEngine(p, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*Result, len(queries))
	for i, q := range queries {
		if want[i], err = ref.Analyze(q); err != nil {
			t.Fatal(err)
		}
	}

	if err := faultpoint.Enable(faultpoint.SiteForceEvict, "on"); err != nil {
		t.Fatal(err)
	}
	chaos, err := NewEngine(p, EngineOptions{MaxArtifactBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		got, err := chaos.Analyze(q)
		if err != nil {
			t.Fatalf("query %d under forced eviction: %v", i, err)
		}
		requireSameResult(t, "forced-eviction", want[i], got)
	}
	if ms := chaos.MemStats(); ms.Evictions == 0 {
		t.Error("force-evict fault never evicted anything")
	}
	requireAccounting(t, chaos)
}

// TestInjectedSlowSolveDegrades is the acceptance scenario: a fault
// making every LP solve artificially slow trips the soft deadline, and
// the query completes degraded instead of timing out.
func TestInjectedSlowSolveDegrades(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	p := buildLoop(t)
	eng, err := NewEngine(p, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := faultpoint.Enable(faultpoint.SiteSlowSolve, "sleep:2ms"); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Analyze(Query{Pfail: 1e-4, Mechanism: cache.MechanismSRB, SoftDeadline: time.Millisecond})
	if err != nil {
		t.Fatalf("slow-solver query must complete degraded, got %v", err)
	}
	if !res.Degraded {
		t.Fatal("slow-solver query not flagged Degraded")
	}
	if res.PWCET <= 0 {
		t.Fatalf("degraded result carries implausible pWCET %d", res.PWCET)
	}
}

// TestInjectedCanceledHitBoundsRecompute: a transient query canceled
// while its hit bounds are being solved leaves no cancellation behind.
// A slow solver widens the window; the timeout grows until an attempt
// dies inside the hit-bound solve — it looked the bounds up (a miss) and
// never finished them (no event). The same query on a live context must
// then match a fresh engine. Its own deadline bounds the engine's
// retries, so a canceled cell left in its table fails the test instead
// of hanging it.
func TestInjectedCanceledHitBoundsRecompute(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	p := buildLoop(t)
	var bounds atomic.Int32
	eng, err := NewEngine(p, EngineOptions{Hook: func(ev ArtifactEvent) {
		if ev.Artifact == ArtifactTransientBound {
			bounds.Add(1)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Warm the classification and the WCET context, so that the hit
	// bounds are the transient query's only miss.
	if _, err := eng.Analyze(Query{Pfail: 1e-4}); err != nil {
		t.Fatal(err)
	}
	if err := faultpoint.Enable(faultpoint.SiteSlowSolve, "sleep:2ms"); err != nil {
		t.Fatal(err)
	}
	q := Query{Scenario: fault.Transient{Lambda: 1e-9}}
	for timeout := 500 * time.Microsecond; ; timeout *= 2 {
		if bounds.Load() != 0 || timeout > 10*time.Second {
			t.Fatalf("no attempt was canceled inside the hit-bound solve (last timeout %v, %d bound events)", timeout/2, bounds.Load())
		}
		before := eng.MemStats().Misses
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		_, err := eng.AnalyzeContext(ctx, q)
		cancel()
		if !isCancelErr(err) {
			t.Fatalf("transient query under a %v timeout = %v, want a cancellation", timeout, err)
		}
		if eng.MemStats().Misses > before && bounds.Load() == 0 {
			break
		}
	}
	faultpoint.Disable(faultpoint.SiteSlowSolve)
	requireAccounting(t, eng)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got, err := eng.AnalyzeContext(ctx, q)
	if err != nil {
		t.Fatalf("transient query after the canceled solve: %v", err)
	}
	fresh, err := NewEngine(p, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "after a canceled hit-bound solve", want, got)
	if n := bounds.Load(); n != 1 {
		t.Errorf("hit bounds computed %d times, want 1", n)
	}
	if ms := eng.MemStats(); ms.PinnedBytes != 0 {
		t.Errorf("pins left: %+v", ms)
	}
	requireAccounting(t, eng)
}

func TestInjectedPivotLimit(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	p := buildLoop(t)
	eng, err := NewEngine(p, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := faultpoint.Enable(faultpoint.SitePivotLimit, "on,count=1"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Analyze(Query{Pfail: 1e-4}); !errors.Is(err, lp.ErrPivotLimit) {
		t.Fatalf("Analyze = %v, want wrapped lp.ErrPivotLimit", err)
	}
}
