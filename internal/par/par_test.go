package par

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestForEachRunsEveryItemOnce: without failures every item runs
// exactly once at every worker count, and newWorker runs once per
// worker, never more than n or the requested count.
func TestForEachRunsEveryItemOnce(t *testing.T) {
	for _, n := range []int{1, 2, 7, 100} {
		for _, workers := range []int{-1, 0, 1, 2, 3, 8} {
			runs := make([]atomic.Int32, n)
			var made atomic.Int32
			err := ForEach(n, workers, func() func(int) error {
				made.Add(1)
				return func(i int) error {
					runs[i].Add(1)
					return nil
				}
			})
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			for i := range runs {
				if got := runs[i].Load(); got != 1 {
					t.Fatalf("n=%d workers=%d: item %d ran %d times", n, workers, i, got)
				}
			}
			want := workers
			if want <= 0 {
				want = runtime.GOMAXPROCS(0)
			}
			if m := int(made.Load()); m < 1 || m > min(n, want) {
				t.Fatalf("n=%d workers=%d: newWorker called %d times, want 1..%d", n, workers, m, min(n, want))
			}
		}
	}
}

// TestForEachEmpty: n = 0 calls nothing, not even newWorker.
func TestForEachEmpty(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 4, math.MaxInt} {
		err := ForEach(0, workers, func() func(int) error {
			t.Fatalf("workers=%d: newWorker called for n = 0", workers)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}

// TestForEachLowestError: when several items fail, ForEach returns the
// lowest failing item's error at every worker count, and every item
// below it ran. Each case is repeated over random failure sets.
func TestForEachLowestError(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 200; iter++ {
		n := 1 + rng.Intn(64)
		fails := make([]bool, n)
		lowest := n
		for k := rng.Intn(4); k >= 0; k-- {
			i := rng.Intn(n)
			fails[i] = true
			lowest = min(lowest, i)
		}
		for _, workers := range []int{1, 2, 3, 8} {
			runs := make([]atomic.Int32, n)
			err := ForEach(n, workers, func() func(int) error {
				return func(i int) error {
					runs[i].Add(1)
					if fails[i] {
						return fmt.Errorf("item %d", i)
					}
					return nil
				}
			})
			if want := fmt.Sprintf("item %d", lowest); err == nil || err.Error() != want {
				t.Fatalf("n=%d workers=%d: got %v, want %s", n, workers, err, want)
			}
			for i := 0; i <= lowest; i++ {
				if got := runs[i].Load(); got != 1 {
					t.Fatalf("n=%d workers=%d: item %d below the lowest failure ran %d times", n, workers, i, got)
				}
			}
		}
	}
}

// TestForEachLowestErrorNotFirstInTime: a higher item that fails first
// in time does not hide a lower item's later failure.
func TestForEachLowestErrorNotFirstInTime(t *testing.T) {
	for _, workers := range []int{2, 4} {
		highFailed := make(chan struct{})
		errLow, errHigh := errors.New("low"), errors.New("high")
		err := ForEach(40, workers, func() func(int) error {
			return func(i int) error {
				switch i {
				case 10:
					// Claimed before 30, which the other workers reach
					// while this one waits; it fails after 30 has.
					<-highFailed
					time.Sleep(5 * time.Millisecond)
					return errLow
				case 30:
					defer close(highFailed)
					return errHigh
				}
				return nil
			}
		})
		if err != errLow {
			t.Fatalf("workers=%d: got %v, want the lower item's error", workers, err)
		}
	}
}

// TestForEachSerialStopsAtFailure: with one worker the items run in
// order on the caller, no item above a failure starts, and no
// goroutine is started.
func TestForEachSerialStopsAtFailure(t *testing.T) {
	errStop := errors.New("stop")
	baseline := runtime.NumGoroutine()
	var order []int
	err := ForEach(10, 1, func() func(int) error {
		return func(i int) error {
			if g := runtime.NumGoroutine(); g > baseline {
				t.Errorf("item %d: %d goroutines running, baseline %d", i, g, baseline)
			}
			order = append(order, i)
			if i == 3 {
				return errStop
			}
			return nil
		}
	})
	if err != errStop {
		t.Fatalf("got %v, want %v", err, errStop)
	}
	if fmt.Sprint(order) != "[0 1 2 3]" {
		t.Fatalf("items ran in order %v, want [0 1 2 3]", order)
	}
}

// TestForEachSerialAllocatesNothing: the one-worker path allocates
// nothing beyond what newWorker itself allocates.
func TestForEachSerialAllocatesNothing(t *testing.T) {
	sum := 0
	item := func(i int) error { sum += i; return nil }
	newWorker := func() func(int) error { return item }
	if a := testing.AllocsPerRun(100, func() { _ = ForEach(16, 1, newWorker) }); a != 0 {
		t.Fatalf("one-worker ForEach allocated %v times per call", a)
	}
}

// TestForEachClampsWorkers: workers = math.MaxInt with n = 3 makes at
// most three workers, so at most two goroutines beyond the caller.
func TestForEachClampsWorkers(t *testing.T) {
	baseline := runtime.NumGoroutine()
	var made atomic.Int32
	var mu sync.Mutex
	peak := 0
	err := ForEach(3, math.MaxInt, func() func(int) error {
		made.Add(1)
		return func(int) error {
			mu.Lock()
			peak = max(peak, runtime.NumGoroutine())
			mu.Unlock()
			time.Sleep(time.Millisecond)
			return nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if m := made.Load(); m > 3 {
		t.Fatalf("newWorker called %d times for 3 items", m)
	}
	if extra := peak - baseline; extra > 2 {
		t.Fatalf("%d goroutines beyond the baseline ran items, want at most 2", extra)
	}
}

// TestForEachPanicReraisedAfterWorkersReturn: a worker's panic comes
// back on the caller as a *Panic holding the original value and the
// panicking frame's stack, and only after every other worker returned.
func TestForEachPanicReraisedAfterWorkersReturn(t *testing.T) {
	type sentinel struct{ msg string }
	value := &sentinel{"boom"}
	var slowDone atomic.Bool
	started := make(chan struct{})
	rec := func() (r any) {
		defer func() { r = recover() }()
		_ = ForEach(2, 2, func() func(int) error {
			return func(i int) error {
				if i == 0 {
					<-started // item 1 is running on the other worker
					panicInItem(value)
				}
				close(started)
				time.Sleep(20 * time.Millisecond)
				slowDone.Store(true)
				return nil
			}
		})
		return nil
	}()
	p, ok := rec.(*Panic)
	if !ok {
		t.Fatalf("recovered %T (%v), want *Panic", rec, rec)
	}
	if p.Value != value {
		t.Fatalf("Panic.Value = %v, want the original value", p.Value)
	}
	if !strings.Contains(string(p.Stack), "panicInItem") {
		t.Fatalf("Panic.Stack does not show the panicking frame:\n%s", p.Stack)
	}
	if !slowDone.Load() {
		t.Fatal("the panic was re-raised before the other worker returned")
	}
}

// panicInItem is a named frame for the stack assertion above.
func panicInItem(v any) { panic(v) }

// TestForEachPanicStopsNewItems: after a panic no new item starts.
func TestForEachPanicStopsNewItems(t *testing.T) {
	var ran atomic.Int32
	func() {
		defer func() { _ = recover() }()
		_ = ForEach(1000, 2, func() func(int) error {
			return func(i int) error {
				ran.Add(1)
				if i == 0 {
					panic("stop")
				}
				time.Sleep(time.Millisecond)
				return nil
			}
		})
	}()
	if n := ran.Load(); n > 10 {
		t.Fatalf("%d items ran, want the other worker to stop within a few", n)
	}
}

// TestForEachNestedPanicPassesThrough: a nested ForEach's *Panic comes
// out of the outer ForEach as the same value, with the innermost stack.
func TestForEachNestedPanicPassesThrough(t *testing.T) {
	var inner *Panic
	rec := func() (r any) {
		defer func() { r = recover() }()
		_ = ForEach(2, 2, func() func(int) error {
			return func(i int) error {
				if i == 0 {
					func() {
						defer func() { inner, _ = recover().(*Panic); panic(inner) }()
						_ = ForEach(2, 2, func() func(int) error {
							return func(int) error { panicInItem("nested"); return nil }
						})
					}()
				}
				return nil
			}
		})
		return nil
	}()
	if inner == nil || rec != inner || inner.Value != "nested" {
		t.Fatalf("recovered %v, want the nested *Panic %v unchanged", rec, inner)
	}
}

// TestForEachSerialPanicUnchanged: with one worker a panic propagates
// as raised, from the caller's own stack.
func TestForEachSerialPanicUnchanged(t *testing.T) {
	rec := func() (r any) {
		defer func() { r = recover() }()
		_ = ForEach(3, 1, func() func(int) error {
			return func(int) error { panic("serial") }
		})
		return nil
	}()
	if rec != "serial" {
		t.Fatalf("recovered %v, want the raw value", rec)
	}
}

// TestForEachConcurrentCalls runs ForEach from several goroutines at
// once, each with its own workers, so the race detector sees the
// claim counter and the failure record under contention.
func TestForEachConcurrentCalls(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			squares := make([]int, 200)
			err := ForEach(200, 3, func() func(int) error {
				return func(i int) error {
					squares[i] = i * i
					if i == 150 {
						return fmt.Errorf("item %d", i)
					}
					return nil
				}
			})
			if err == nil || err.Error() != "item 150" {
				t.Errorf("goroutine %d: got %v, want item 150", g, err)
			}
		}()
	}
	wg.Wait()
}
