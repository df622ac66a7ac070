package core

// Robustness helpers of the Engine: the panic boundary that poisons an
// engine whose internal memo state can no longer be trusted, and the
// cancellation-error classifier that settles the memo tables' errors
// (see get in memo.go).

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"repro/internal/par"
)

// ErrPoisoned is returned (wrapped) by every Engine method after a
// query panicked inside the engine. A panic can interrupt memo-table
// construction at any point, so the engine's internal state is no
// longer trustworthy; callers must discard the engine and build a new
// one. internal/serve's pool does this automatically on release.
var ErrPoisoned = errors.New("core: engine poisoned by a previous panic")

// PanicError is the error a recovered analysis panic turns into: the
// engine's panic boundary (analyzeOnce) converts the panic into this
// error, poisons the engine and returns it to the caller instead of
// unwinding the process. Value is the original panic value and Stack
// the stack of the goroutine that panicked: the query's own, or that
// of the per-set or per-node worker whose panic par.ForEach raised
// again on the query's goroutine. A query that joined the memoized
// computation that panicked (see get) fails with a PanicError of the
// same panic, without poisoning the engine a second time.
type PanicError struct {
	Value any
	Stack []byte
}

// Error renders the panic value; the stack is available on the field
// for logs (internal/serve includes it in the daemon's error log).
func (p *PanicError) Error() string {
	return fmt.Sprintf("core: analysis panicked: %v", p.Value)
}

// newPanicError converts a recovered panic value into a *PanicError.
// Called from the recovering deferred function, it records the stack of
// the goroutine that panicked; a *par.Panic brings the stack of the
// worker it was raised on instead.
func newPanicError(r any) *PanicError {
	if p, ok := r.(*par.Panic); ok {
		return &PanicError{Value: p.Value, Stack: p.Stack}
	}
	return &PanicError{Value: r, Stack: debug.Stack()}
}

// poison marks the engine unusable, retaining the first panic.
func (e *Engine) poison(pe *PanicError) {
	e.panicVal.CompareAndSwap(nil, pe)
	e.poisoned.Store(true)
}

// poisonError builds the fail-fast error of a poisoned engine,
// identifying the original panic when it is known.
func (e *Engine) poisonError() error {
	if pe := e.panicVal.Load(); pe != nil {
		return fmt.Errorf("%w: %v", ErrPoisoned, pe.Value)
	}
	return ErrPoisoned
}

// Poisoned reports whether a query panicked inside the engine. A
// poisoned engine fails every call fast with ErrPoisoned and must be
// discarded; pool owners check this on release and never hand a
// poisoned engine out again.
func (e *Engine) Poisoned() bool { return e.poisoned.Load() }

// isCancelErr reports whether err stems from context cancellation (or
// deadline expiry) rather than a genuine analysis failure. The memo
// layers use it to decide stickiness: real errors are properties of the
// artifact key and stay cached, cancellation is a property of one
// query's context and must never outlive that query.
func isCancelErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
