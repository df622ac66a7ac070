package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// requireAccounting walks the LRU list under the engine's lock and
// fails unless the accounting agrees with it: resident equals the sum
// of the linked nodes' costs, artifacts equals their number, and every
// node holds 0 <= depPins <= pins.
func requireAccounting(t *testing.T, e *Engine) {
	t.Helper()
	if !e.mu.TryLock() {
		t.Fatal("accounting check: the engine's lock is held")
	}
	defer e.mu.Unlock()
	var resident int64
	linked := 0
	for n := e.lruHead; n != nil; n = n.next {
		resident += n.cost
		linked++
		if n.depPins < 0 || n.depPins > n.pins {
			t.Errorf("node of %d bytes holds %d dependency pins of %d pins", n.cost, n.depPins, n.pins)
		}
	}
	if resident != e.resident {
		t.Errorf("resident %d bytes, but the linked nodes cost %d", e.resident, resident)
	}
	if linked != e.artifacts {
		t.Errorf("%d artifacts counted, but %d nodes linked", e.artifacts, linked)
	}
}

// waitMemo polls the engine's counters under its lock until cond holds,
// so that a test can release a blocked computation only once every
// caller it drives has looked its key up.
func waitMemo(t *testing.T, e *Engine, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		e.mu.Lock()
		ok := cond()
		e.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// cellOf returns the current cell of key, or nil.
func cellOf[K comparable, V any](e *Engine, m *memo[K, V], key K) *memoCell[V] {
	e.mu.Lock()
	defer e.mu.Unlock()
	return m.cells[key]
}

// pinsOf returns a cell's pin counts under the engine's lock.
func pinsOf[V any](e *Engine, c *memoCell[V]) (pins, depPins int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return c.node.pins, c.node.depPins
}

var testEvent = ArtifactEvent{Artifact: ArtifactWCET}

// TestMemoComputesOnceForConcurrentCallers: callers that look a key up
// while its computation runs join it. One miss, a hit for every other
// caller, one computation, one event, one charge.
func TestMemoComputesOnceForConcurrentCallers(t *testing.T) {
	var events atomic.Int32
	e := &Engine{opt: EngineOptions{Hook: func(ArtifactEvent) { events.Add(1) }}}
	var m memo[string, int]
	gate := make(chan struct{})
	var calls atomic.Int32
	compute := func() (int, int64, error) {
		calls.Add(1)
		<-gate
		return 42, 8, nil
	}
	const callers = 8
	var wg sync.WaitGroup
	got := make([]int, callers)
	errs := make([]error, callers)
	for i := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := get(e, context.Background(), &m, "k", pinNone, testEvent, compute)
			if err == nil {
				got[i] = c.val
			}
			errs[i] = err
		}()
	}
	waitMemo(t, e, "every caller's lookup", func() bool { return e.hits+e.misses == callers })
	close(gate)
	wg.Wait()
	for i := range callers {
		if errs[i] != nil || got[i] != 42 {
			t.Fatalf("caller %d: got %d, %v; want 42", i, got[i], errs[i])
		}
	}
	if calls.Load() != 1 || events.Load() != 1 {
		t.Errorf("%d computations and %d events, want 1 and 1", calls.Load(), events.Load())
	}
	if e.misses != 1 || e.hits != callers-1 {
		t.Errorf("%d misses and %d hits, want 1 and %d", e.misses, e.hits, callers-1)
	}
	if e.artifacts != 1 || e.resident != 8 {
		t.Errorf("%d artifacts of %d bytes resident, want 1 of 8", e.artifacts, e.resident)
	}
	requireAccounting(t, e)
}

// TestMemoCanceledCellLeavesTable: a computation that its own query's
// context cancels leaves no cell behind, uncharged and unpinned, and
// the next lookup computes afresh.
func TestMemoCanceledCellLeavesTable(t *testing.T) {
	e := &Engine{}
	var m memo[string, int]
	ctx, cancel := context.WithCancel(context.Background())
	var canceled *memoCell[int]
	_, err := get(e, ctx, &m, "k", pinQuery, testEvent, func() (int, int64, error) {
		canceled = cellOf(e, &m, "k")
		cancel()
		return 0, 0, ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("get under a canceled context = %v, want context.Canceled", err)
	}
	if c := cellOf(e, &m, "k"); c != nil {
		t.Fatal("the canceled cell is still in its table")
	}
	if pins, _ := pinsOf(e, canceled); pins != 0 {
		t.Errorf("the canceled cell holds %d pins, want 0", pins)
	}
	if e.artifacts != 0 || e.resident != 0 {
		t.Errorf("a canceled computation was charged: %d artifacts, %d bytes", e.artifacts, e.resident)
	}
	c, err := get(e, context.Background(), &m, "k", pinNone, testEvent, func() (int, int64, error) { return 7, 8, nil })
	if err != nil || c.val != 7 {
		t.Fatalf("lookup after the cancellation: %v, %v", c, err)
	}
	if e.misses != 2 || e.hits != 0 {
		t.Errorf("%d misses and %d hits, want 2 and 0", e.misses, e.hits)
	}
	requireAccounting(t, e)
}

// TestMemoJoinerRetriesAfterForeignCancel: a live caller that joined a
// computation canceled by the context of the query that started it does
// not inherit that cancellation. It retries, counting one hit and then
// one miss, computes afresh with its own function, and both queries'
// pins on the canceled cell are released.
func TestMemoJoinerRetriesAfterForeignCancel(t *testing.T) {
	e := &Engine{}
	var m memo[string, int]
	ctxA, cancelA := context.WithCancel(context.Background())
	gate := make(chan struct{})
	errA := make(chan error, 1)
	go func() {
		_, err := get(e, ctxA, &m, "k", pinQuery, testEvent, func() (int, int64, error) {
			<-gate
			return 0, 0, ctxA.Err()
		})
		errA <- err
	}()
	waitMemo(t, e, "the first caller's miss", func() bool { return e.misses == 1 })
	canceled := cellOf(e, &m, "k")

	// The joiner's own deadline bounds its retries, so a cell that stays
	// canceled fails the test instead of spinning forever.
	ctxB, cancelB := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelB()
	type outcome struct {
		c   *memoCell[int]
		err error
	}
	resB := make(chan outcome, 1)
	var callsB atomic.Int32
	go func() {
		c, err := get(e, ctxB, &m, "k", pinQuery, testEvent, func() (int, int64, error) {
			callsB.Add(1)
			return 7, 8, nil
		})
		resB <- outcome{c, err}
	}()
	waitMemo(t, e, "the joiner's hit", func() bool { return e.hits == 1 })
	cancelA()
	close(gate)

	if err := <-errA; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled caller: %v, want context.Canceled", err)
	}
	b := <-resB
	if b.err != nil || b.c.val != 7 {
		t.Fatalf("joiner: %v, %v; want 7", b.c, b.err)
	}
	if callsB.Load() != 1 {
		t.Errorf("joiner computed %d times, want 1", callsB.Load())
	}
	if e.hits != 1 || e.misses != 2 {
		t.Errorf("%d hits and %d misses, want 1 and 2", e.hits, e.misses)
	}
	if pins, _ := pinsOf(e, canceled); pins != 0 {
		t.Errorf("the canceled cell holds %d pins, want 0", pins)
	}
	if pins, _ := pinsOf(e, b.c); pins != 1 {
		t.Errorf("the joiner's fresh cell holds %d pins, want its query pin", pins)
	}
	e.release(&b.c.node, pinQuery)
	requireAccounting(t, e)
}

// TestMemoGenuineErrorIsSticky: a genuine error is a property of the
// key. Its cell stays in the table, uncharged; the next lookup counts a
// hit and returns the same error without computing; and neither lookup
// leaves its query pin behind.
func TestMemoGenuineErrorIsSticky(t *testing.T) {
	var events atomic.Int32
	e := &Engine{opt: EngineOptions{Hook: func(ArtifactEvent) { events.Add(1) }}}
	var m memo[string, int]
	boom := errors.New("boom")
	calls := 0
	compute := func() (int, int64, error) {
		calls++
		return 0, 0, boom
	}
	for i := 0; i < 2; i++ {
		if _, err := get(e, context.Background(), &m, "k", pinQuery, testEvent, compute); !errors.Is(err, boom) {
			t.Fatalf("lookup %d = %v, want the genuine error", i, err)
		}
	}
	if calls != 1 {
		t.Errorf("computed %d times, want 1", calls)
	}
	if e.misses != 1 || e.hits != 1 {
		t.Errorf("%d misses and %d hits, want 1 and 1", e.misses, e.hits)
	}
	c := cellOf(e, &m, "k")
	if c == nil {
		t.Fatal("the failed cell left its table")
	}
	if pins, _ := pinsOf(e, c); pins != 0 {
		t.Errorf("the failed cell holds %d pins, want 0", pins)
	}
	if e.artifacts != 0 || e.resident != 0 || events.Load() != 0 {
		t.Errorf("a failed computation was charged or announced: %d artifacts, %d bytes, %d events",
			e.artifacts, e.resident, events.Load())
	}
	requireAccounting(t, e)
}

// TestMemoPanicSettlesCellAsFailed: sync.Once counts a panicking
// computation as done, so its cell must not be left holding a zero
// value and no error. The panic reaches the computing caller with its
// original value; a caller that joined the computation and a later
// lookup both fail with the *PanicError it became, without computing
// again, and no lookup leaves a pin behind.
func TestMemoPanicSettlesCellAsFailed(t *testing.T) {
	e := &Engine{}
	var m memo[string, int]
	gate := make(chan struct{})
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		get(e, context.Background(), &m, "k", pinQuery, testEvent, func() (int, int64, error) {
			<-gate
			panic("compute")
		})
	}()
	waitMemo(t, e, "the first caller's miss", func() bool { return e.misses == 1 })
	var calls atomic.Int32
	compute := func() (int, int64, error) {
		calls.Add(1)
		return 7, 8, nil
	}
	joined := make(chan error, 1)
	go func() {
		_, err := get(e, context.Background(), &m, "k", pinQuery, testEvent, compute)
		joined <- err
	}()
	waitMemo(t, e, "the joiner's hit", func() bool { return e.hits == 1 })
	close(gate)
	if r := <-recovered; r != "compute" {
		t.Fatalf("the computing caller recovered %v, want the original panic value", r)
	}
	joinErr := <-joined
	_, laterErr := get(e, context.Background(), &m, "k", pinQuery, testEvent, compute)
	for i, err := range []error{joinErr, laterErr} {
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Value != "compute" || len(pe.Stack) == 0 {
			t.Errorf("%s: %v, want the *PanicError of the computation's panic", []string{"joiner", "later lookup"}[i], err)
		}
	}
	if calls.Load() != 0 {
		t.Errorf("the panicked cell computed again %d times", calls.Load())
	}
	if pins, _ := pinsOf(e, cellOf(e, &m, "k")); pins != 0 {
		t.Errorf("the panicked cell holds %d pins, want 0", pins)
	}
	if e.artifacts != 0 || e.resident != 0 {
		t.Errorf("a panicked computation was charged: %d artifacts, %d bytes", e.artifacts, e.resident)
	}
	requireAccounting(t, e)
}

// TestMemoReleasesPinOnErrorAndPanic: get releases the pin it took when
// the computation fails or panics, and when the Hook panics after the
// artifact was charged — the engine's panic boundary poisons the
// engine, but must find no pins stranded.
func TestMemoReleasesPinOnErrorAndPanic(t *testing.T) {
	panicking := func(e *Engine, m *memo[string, int], key string, pin pinKind, compute func() (int, int64, error)) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: get did not propagate the panic", key)
			}
		}()
		get(e, context.Background(), m, key, pin, testEvent, compute)
	}
	for _, pin := range []pinKind{pinQuery, pinDep} {
		e := &Engine{}
		var m memo[string, int]
		if _, err := get(e, context.Background(), &m, "error", pin, testEvent, func() (int, int64, error) {
			return 0, 0, errors.New("boom")
		}); err == nil {
			t.Fatal("the failing computation returned no error")
		}
		panicking(e, &m, "panic", pin, func() (int, int64, error) { panic("compute") })
		e.opt.Hook = func(ArtifactEvent) { panic("hook") }
		panicking(e, &m, "hook", pin, func() (int, int64, error) { return 1, 8, nil })
		for _, key := range []string{"error", "panic", "hook"} {
			c := cellOf(e, &m, key)
			if c == nil {
				t.Errorf("pin kind %d, %s: the cell left its table", pin, key)
				continue
			}
			if pins, depPins := pinsOf(e, c); pins != 0 || depPins != 0 {
				t.Errorf("pin kind %d, %s: %d pins (%d dependency pins) left, want 0", pin, key, pins, depPins)
			}
		}
		if e.artifacts != 1 {
			t.Errorf("pin kind %d: %d artifacts resident, want the one the panicking hook saw charged", pin, e.artifacts)
		}
		requireAccounting(t, e)
	}
}

// TestMemoEvictedOncePerEviction: the byte budget evicts unpinned cells
// least recently used first, removes each from its table and runs the
// table's evicted hook exactly once per eviction; a pinned cell stays
// until its pin is released.
func TestMemoEvictedOncePerEviction(t *testing.T) {
	evicted := make(map[int]int) // written under e.mu by the hook
	e := &Engine{opt: EngineOptions{MaxArtifactBytes: 20}}
	m := memo[int, int]{evicted: func(v int) { evicted[v]++ }}
	value := func(v int) func() (int, int64, error) {
		return func() (int, int64, error) { return v, 8, nil }
	}
	pinned, err := get(e, context.Background(), &m, 0, pinQuery, testEvent, value(0))
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 5; k++ {
		if _, err := get(e, context.Background(), &m, k, pinNone, testEvent, value(k)); err != nil {
			t.Fatal(err)
		}
		requireAccounting(t, e)
	}
	// 8 bytes each against 20: the pinned cell and the newest unpinned
	// one fit, so keys 1 to 4 were evicted, oldest first.
	if e.evictions != 4 || len(evicted) != 4 {
		t.Fatalf("%d evictions, evicted hook saw %v; want 4 of keys 1..4", e.evictions, evicted)
	}
	for k := 1; k <= 4; k++ {
		if evicted[k] != 1 || cellOf(e, &m, k) != nil {
			t.Errorf("key %d: evicted hook ran %d times, cell present %v; want once and gone", k, evicted[k], cellOf(e, &m, k) != nil)
		}
	}
	if cellOf(e, &m, 0) == nil || cellOf(e, &m, 5) == nil {
		t.Fatal("the pinned cell or the newest cell was evicted")
	}
	// Releasing the pin under a budget that fits one cell evicts the
	// released cell, the least recently used.
	e.opt.MaxArtifactBytes = 8
	e.release(&pinned.node, pinQuery)
	if e.evictions != 5 || evicted[0] != 1 || cellOf(e, &m, 0) != nil || cellOf(e, &m, 5) == nil {
		t.Errorf("after releasing the pin: %d evictions, evicted hook saw %v; want key 0 evicted once, key 5 kept", e.evictions, evicted)
	}
	requireAccounting(t, e)
}
