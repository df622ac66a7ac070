package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/fault"
	"repro/internal/malardalen"
	"repro/internal/program"
)

// waitGoroutines polls until the goroutine count drops back to at most
// baseline (plus the runtime's own background slack), failing after a
// generous deadline. Cancellation must leave no worker behind.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC() // nudges finished goroutines through exit
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after cancellation: %d running, baseline %d", n, baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCancellationPromptAndLeakFree is the acceptance criterion of the
// robustness issue: canceling a 256-set batch mid-flight returns
// ctx.Err() within 100ms, every worker goroutine winds down, and the
// engine's LRU holds zero query-pinned bytes afterwards. Exercised at
// workers 1 (serial path) and 4 (pool path).
func TestCancellationPromptAndLeakFree(t *testing.T) {
	cfg := cache.Config{Sets: 256, Ways: 2, BlockBytes: 8, HitLatency: 1, MemLatency: 100}
	p := build256SetProgram(t)

	for _, workers := range []int{1, 4} {
		baseline := runtime.NumGoroutine()
		eng, err := NewEngine(p, EngineOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		queries := make([]Query, len(sweepPfails))
		for i, pf := range sweepPfails {
			queries[i] = Query{Cache: cfg, Pfail: pf, Mechanism: cache.MechanismSRB}
		}

		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := eng.AnalyzeBatchContext(ctx, queries)
			done <- err
		}()
		time.Sleep(5 * time.Millisecond) // let the batch get into the pipeline
		canceledAt := time.Now()
		cancel()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d: batch error = %v, want context.Canceled", workers, err)
			}
			if took := time.Since(canceledAt); took > 100*time.Millisecond {
				t.Errorf("workers=%d: cancellation took %v, want < 100ms", workers, took)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("workers=%d: canceled batch never returned", workers)
		}

		waitGoroutines(t, baseline)
		if ms := eng.MemStats(); ms.PinnedBytes != 0 || ms.PinnedArtifacts != 0 {
			t.Errorf("workers=%d: canceled batch left pins behind: %+v", workers, ms)
		}
		requireAccounting(t, eng)

		// The engine must still be fully usable: a clean run afterwards
		// matches a fresh engine byte for byte (cancellation never
		// poisons memo entries).
		got, err := eng.Analyze(queries[0])
		if err != nil {
			t.Fatalf("workers=%d: post-cancel Analyze: %v", workers, err)
		}
		fresh, err := NewEngine(p, EngineOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Analyze(queries[0])
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, "post-cancel", want, got)
	}
}

// TestPreCanceledContext: an already-dead context fails before any
// computation starts.
func TestPreCanceledContext(t *testing.T) {
	p := buildLoop(t)
	eng, err := NewEngine(p, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.AnalyzeContext(ctx, Query{Pfail: 1e-4}); !errors.Is(err, context.Canceled) {
		t.Fatalf("AnalyzeContext on dead ctx = %v, want context.Canceled", err)
	}
	if ms := eng.MemStats(); ms.Misses != 0 {
		t.Fatalf("dead ctx still triggered %d artifact computations", ms.Misses)
	}
}

// TestLegacySignaturesAreBackgroundWrappers: the context-free API is
// byte-identical to AnalyzeContext(context.Background(), ...).
func TestLegacySignaturesAreBackgroundWrappers(t *testing.T) {
	p := buildLoop(t)
	a, err := NewEngine(p, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEngine(p, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Pfail: 1e-4, Mechanism: cache.MechanismSRB}
	legacy, err := a.Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	ctxed, err := b.AnalyzeContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	requireDeepEqualResult(t, "legacy-vs-context", legacy, ctxed)
}

// TestDegradedModeSoundDominance pins the degraded-mode soundness
// contract: a query forced through the tightest support cap by an
// unmeetable soft deadline must (a) complete instead of timing out,
// (b) be flagged Degraded, and (c) upper-bound the exact result — the
// exact penalty distribution is stochastically dominated by the
// degraded one, and the degraded pWCET quantile is at or above the
// exact quantile.
func TestDegradedModeSoundDominance(t *testing.T) {
	p := build256SetProgram(t)
	cfg := cache.Config{Sets: 256, Ways: 2, BlockBytes: 8, HitLatency: 1, MemLatency: 100}

	for _, mech := range []cache.Mechanism{cache.MechanismNone, cache.MechanismRW, cache.MechanismSRB} {
		q := Query{Cache: cfg, Pfail: 1e-3, Mechanism: mech}
		eng, err := NewEngine(p, EngineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		exact, err := eng.Analyze(q)
		if err != nil {
			t.Fatal(err)
		}
		if exact.Degraded {
			t.Fatalf("%v: exact run flagged degraded", mech)
		}

		q.SoftDeadline = time.Nanosecond // every timed attempt dies; the floor attempt completes
		deng, err := NewEngine(p, EngineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		degraded, err := deng.Analyze(q)
		if err != nil {
			t.Fatalf("%v: degraded mode must complete, got %v", mech, err)
		}
		if !degraded.Degraded {
			t.Fatalf("%v: result not flagged Degraded under a 1ns soft deadline", mech)
		}
		if degraded.PWCET < exact.PWCET {
			t.Errorf("%v: degraded pWCET %d below exact %d — unsound", mech, degraded.PWCET, exact.PWCET)
		}
		if !exact.Penalty.DominatedBy(degraded.Penalty, 1e-12) {
			t.Errorf("%v: degraded penalty distribution does not dominate the exact one", mech)
		}
	}
}

// TestDegradedModeNoDeadlineIsExact: a generous soft deadline leaves
// the result byte-identical to the plain path, with Degraded false.
func TestDegradedModeNoDeadlineIsExact(t *testing.T) {
	p := buildLoop(t)
	q := Query{Pfail: 1e-4, Mechanism: cache.MechanismRW}
	a, _ := NewEngine(p, EngineOptions{})
	b, _ := NewEngine(p, EngineOptions{})
	exact, err := a.Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	q.SoftDeadline = time.Hour
	relaxed, err := b.Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	if relaxed.Degraded {
		t.Fatal("unbinding soft deadline flagged the result degraded")
	}
	requireDeepEqualResult(t, "soft-deadline-unbinding", exact, relaxed)
}

// TestPanicPoisonsEngine: a panic anywhere inside an analysis is
// recovered into a *PanicError, the engine is poisoned (all further
// queries fail fast with ErrPoisoned), and no query pins are stranded.
func TestPanicPoisonsEngine(t *testing.T) {
	p := buildLoop(t)
	eng, err := NewEngine(p, EngineOptions{
		Hook: func(ArtifactEvent) { panic("injected hook panic") },
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.Analyze(Query{Pfail: 1e-4})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Analyze after panic = %v, want *PanicError", err)
	}
	if pe.Value != "injected hook panic" || len(pe.Stack) == 0 {
		t.Fatalf("PanicError carries %v / %d stack bytes", pe.Value, len(pe.Stack))
	}
	if !eng.Poisoned() {
		t.Fatal("engine not poisoned after a panicking query")
	}

	start := time.Now()
	_, err = eng.Analyze(Query{Pfail: 1e-3})
	if !errors.Is(err, ErrPoisoned) {
		t.Fatalf("second Analyze = %v, want ErrPoisoned", err)
	}
	if time.Since(start) > 50*time.Millisecond {
		t.Error("poisoned engine did not fail fast")
	}

	ms := eng.MemStats()
	if !ms.Poisoned {
		t.Error("MemStats does not report poisoning")
	}
	if ms.PinnedBytes != 0 || ms.PinnedArtifacts != 0 {
		t.Errorf("poisoning query stranded pins: %+v", ms)
	}
	requireAccounting(t, eng)
}

// TestPanicAfterContextLinkedReleasesPin: a Hook that panics on the
// WCET event fires after the context has been charged and linked into
// the LRU while the query's pin on it is held. The query poisons the
// engine, and the panic path must still release that pin.
func TestPanicAfterContextLinkedReleasesPin(t *testing.T) {
	p := buildLoop(t)
	eng, err := NewEngine(p, EngineOptions{
		Hook: func(ev ArtifactEvent) {
			if ev.Artifact == ArtifactWCET {
				panic("injected WCET hook panic")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var pe *PanicError
	if _, err := eng.Analyze(Query{Pfail: 1e-4}); !errors.As(err, &pe) {
		t.Fatalf("Analyze = %v, want *PanicError", err)
	}
	if !eng.Poisoned() {
		t.Fatal("engine not poisoned after a panicking query")
	}
	ms := eng.MemStats()
	if ms.Artifacts != 2 {
		t.Fatalf("%d artifacts resident, want the classification and the linked context", ms.Artifacts)
	}
	if ms.PinnedBytes != 0 || ms.PinnedArtifacts != 0 {
		t.Errorf("the panic stranded the query's pin on its context: %+v", ms)
	}
	requireAccounting(t, eng)
}

// TestCycleOverflowIsAnError: a memory latency so large that a cycle
// count no longer fits int64 — the fault-free WCET, a set's penalty, the
// sum the penalty reduction would reach, the fold of the data-cache
// penalty into the instruction-cache one, the transient window, or the
// pWCET itself — is reported as an error naming the failed operation,
// by the one-shot pipeline and by an engine alike. The engine stays
// usable: the overflow is a property of the query, not a panic that
// poisons it.
func TestCycleOverflowIsAnError(t *testing.T) {
	latency := func(cfg cache.Config, mem int64) *cache.Config {
		cfg.MemLatency = mem
		return &cfg
	}
	paper := cache.PaperConfig()
	cases := []struct {
		p      *program.Program
		icache *cache.Config
		dcache *cache.Config
		scn    fault.Scenario
		want   string
	}{
		{malardalen.MustGet("bs"), latency(paper, 461168601842738790), nil, fault.Permanent{Pfail: 1e-4}, "ipet: WCET"},
		{malardalen.MustGet("bs"), latency(paper, 1e17), nil, fault.Permanent{Pfail: 1e-4}, "core: penalty reduction"},
		{malardalen.MustGet("bs"), latency(paper, 85e15), nil, fault.Permanent{Pfail: 1e-4}, "core: pWCET"},
		{malardalen.MustGet("crc"), latency(paper, 1e16), nil, fault.Permanent{Pfail: 1e-4}, "core: set 0 penalty"},
		{malardalen.MustGet("crc"), latency(paper, 1e16), nil, fault.Transient{Lambda: 1e-9}, "core: transient window"},
		{buildDataProgram(), latency(dcacheConfig(), 3e16), latency(dcacheConfig(), 1e17), fault.Permanent{Pfail: 1e-3}, "core: penalty fold"},
	}
	for _, tc := range cases {
		label := fmt.Sprintf("%s at latency %d (%v)", tc.p.Name, tc.icache.MemLatency, tc.scn)
		check := func(how string, err error) {
			t.Helper()
			var pe *PanicError
			switch {
			case err == nil:
				t.Fatalf("%s, %s: no error", label, how)
			case errors.As(err, &pe):
				t.Fatalf("%s, %s: panicked: %v", label, how, err)
			case !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "overflows int64"):
				t.Fatalf("%s, %s: error %q, want %q ... overflows int64", label, how, err, tc.want)
			}
		}
		_, err := Analyze(tc.p, Options{Cache: *tc.icache, DataCache: tc.dcache, Scenario: tc.scn, Mechanism: cache.MechanismNone})
		check("one-shot", err)

		eng, err := NewEngine(tc.p, EngineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		_, err = eng.Analyze(Query{Cache: *tc.icache, DataCache: tc.dcache, Scenario: tc.scn, Mechanism: cache.MechanismNone})
		check("engine", err)
		if eng.Poisoned() {
			t.Fatalf("%s: the overflow poisoned the engine", label)
		}
		if _, err := eng.Analyze(Query{Pfail: 1e-4}); err != nil {
			t.Fatalf("%s: engine unusable after the overflow: %v", label, err)
		}
	}
}

// TestBatchCancellationAcrossWorkers runs the cancel-mid-batch path
// under both scheduling modes repeatedly — fodder for the -race build
// to catch unsynchronized teardown.
func TestBatchCancellationAcrossWorkers(t *testing.T) {
	p := buildLoop(t)
	for _, workers := range []int{1, 4} {
		eng, err := NewEngine(p, EngineOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		queries := make([]Query, 6)
		for i := range queries {
			queries[i] = Query{Pfail: sweepPfails[i], Mechanism: cache.MechanismSRB}
		}
		for round := 0; round < 5; round++ {
			ctx, cancel := context.WithTimeout(context.Background(), time.Duration(round)*500*time.Microsecond)
			_, err := eng.AnalyzeBatchContext(ctx, queries)
			cancel()
			if err != nil && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d round=%d: unexpected error class %v", workers, round, err)
			}
			if ms := eng.MemStats(); ms.PinnedBytes != 0 {
				t.Fatalf("workers=%d round=%d: pins left: %+v", workers, round, ms)
			}
		}
		requireAccounting(t, eng)
		// Afterwards the engine still answers cleanly.
		if _, err := eng.Analyze(queries[0]); err != nil {
			t.Fatalf("workers=%d: engine unusable after cancel rounds: %v", workers, err)
		}
	}
}
