// Package par runs the items of a fan-out on a bounded set of workers.
// The analysis works per cache set and per merge node, so every stage
// fans out; ForEach is the one loop they all use, so clamping,
// ordering, failures and panics follow one contract everywhere.
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Panic is the value ForEach re-raises on its caller when a worker
// panicked while several ran: the original panic value and the stack
// of the goroutine that raised it, which a re-raise on the caller
// would otherwise lose. A panic boundary that reports panics should
// unwrap it.
type Panic struct {
	Value any
	Stack []byte
}

// Error renders the original value followed by the panicking worker's
// stack, so a panic that nothing recovers still names the frame that
// raised it.
func (p *Panic) Error() string {
	return fmt.Sprintf("%v\n\npanicking worker's stack:\n%s", p.Value, p.Stack)
}

// ForEach calls item(i) for every i in [0, n) and returns once every
// worker has returned. Each worker calls newWorker once, on its own
// goroutine, for the item function that carries its private state (a
// simplex clone, a scratch buffer), and calls that function for the
// items it claims.
//
//   - workers <= 0 means runtime.GOMAXPROCS(0), and the count is
//     clamped to n. n <= 0 calls nothing, not even newWorker.
//   - The calling goroutine is one of the workers. With one worker the
//     items run in order on the caller: no goroutine starts and
//     nothing beyond newWorker's own state is allocated.
//   - Items are claimed in ascending order. Once an item fails, no
//     item above it starts, while claimed items below it still run;
//     ForEach returns the error of the lowest failing item, the one a
//     sequential loop would have stopped at.
//   - With one worker a panic propagates unchanged. With several, a
//     panic in any worker stops new items, and once every worker has
//     returned it is raised again on the caller as a *Panic holding
//     the original value and the panicking worker's stack. A *Panic
//     from a nested ForEach is passed on as it is.
func ForEach(n, workers int, newWorker func() func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	if workers <= 1 {
		if n <= 0 {
			return nil
		}
		item := newWorker()
		for i := range n {
			if err := item(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next  atomic.Int64 // the lowest unclaimed item
		limit atomic.Int64 // items at or above it do not start
		mu    sync.Mutex   // guards failed, err and pnc
		// failed is the lowest failing item so far (n if none) and err
		// its error; pnc is the first panic.
		failed = n
		err    error
		pnc    *Panic
	)
	limit.Store(int64(n))
	work := func() {
		defer func() {
			if r := recover(); r != nil {
				p, ok := r.(*Panic)
				if !ok {
					p = &Panic{Value: r, Stack: debug.Stack()}
				}
				mu.Lock()
				if pnc == nil {
					pnc = p
				}
				mu.Unlock()
				lower(&limit, 0)
			}
		}()
		item := newWorker()
		for {
			i := next.Add(1) - 1
			if i >= limit.Load() {
				return
			}
			if e := item(int(i)); e != nil {
				mu.Lock()
				if int(i) < failed {
					failed, err = int(i), e
				}
				mu.Unlock()
				lower(&limit, i)
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for range workers - 1 {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if pnc != nil {
		panic(pnc)
	}
	return err
}

// lower sets v to min(v, to).
func lower(v *atomic.Int64, to int64) {
	for {
		cur := v.Load()
		if to >= cur || v.CompareAndSwap(cur, to) {
			return
		}
	}
}
