package core

// This file implements the memoization protocol every Engine artifact
// shares, written once: a generic table, memo[K, V], and a generic get
// that looks a key up, joins or runs its single computation, charges
// the LRU and settles errors. engine.go keeps one table per artifact
// class and supplies only what differs between them: the computation,
// its event and the kind of pin its caller needs.

import (
	"context"
	"sync"
)

// pinKind is the hold get takes on a cell for its caller. A pinned
// artifact is never evicted (see memory.go), so a holder can rely on it
// staying resident and accounted.
type pinKind int

const (
	// pinNone takes no hold: the caller only reads the value, which is
	// immutable, so evicting the cell meanwhile is harmless.
	pinNone pinKind = iota
	// pinDep is a dependency pin, held by the artifact being built (a
	// WCET context holds its classifications) until that artifact is
	// evicted or its own computation fails.
	pinDep
	// pinQuery is held by the calling query until it releases the cell.
	pinQuery
)

// memoCell is one entry of a memo table: the artifact's LRU node, its
// single computation and the outcome. val and err are written once,
// inside once, and read only after it.
type memoCell[V any] struct {
	node memoNode
	once sync.Once
	val  V
	err  error
}

// memo is one memo table, keyed by what its artifact is a pure function
// of. cells is guarded by Engine.mu and created on first use.
type memo[K comparable, V any] struct {
	cells map[K]*memoCell[V]
	// evicted, when non-nil, releases what a resident value holds in
	// other tables (its dependency pins). It runs under Engine.mu, once
	// per eviction.
	evicted func(V)
}

// get returns the cell of key in m, running compute on its first use.
// compute returns the value, its estimated resident bytes and an error;
// it runs outside Engine.mu, at most once per cell however many callers
// join it, and a success emits ev.
//
// On success the cell is returned holding the caller's pin: a pinQuery
// caller releases it, a pinDep pin belongs to the artifact being built.
// On an error or a panic get releases the pin itself. Errors settle by
// kind. A genuine error is a property of the key: the cell stays in the
// table, uncharged, and every later lookup returns the same error. So
// does a panic in compute, as the *PanicError it becomes, while the
// panic goes on to the caller.
// Cancellation is a property of one query: the cell leaves its table,
// and a caller whose own context is still live — it joined a
// computation that another query's context canceled — retries afresh.
func get[K comparable, V any](e *Engine, qctx context.Context, m *memo[K, V], key K, pin pinKind, ev ArtifactEvent, compute func() (V, int64, error)) (*memoCell[V], error) {
	for {
		c, err := getOnce(e, m, key, pin, ev, compute)
		if err == nil || !isCancelErr(err) || qctx.Err() != nil {
			return c, err
		}
	}
}

// getOnce is one lookup of get: it joins or runs the current cell's
// computation without retrying.
func getOnce[K comparable, V any](e *Engine, m *memo[K, V], key K, pin pinKind, ev ArtifactEvent, compute func() (V, int64, error)) (*memoCell[V], error) {
	e.mu.Lock()
	c := m.cells[key]
	if c == nil {
		if m.cells == nil {
			m.cells = make(map[K]*memoCell[V])
		}
		c = &memoCell[V]{}
		// A linked cell is always its key's current one: only an
		// eviction (which unlinks it) or a cancellation (of a cell never
		// linked) removes a cell from its table.
		c.node.drop = func() {
			delete(m.cells, key)
			if m.evicted != nil {
				m.evicted(c.val)
			}
		}
		m.cells[key] = c
		e.misses++
	} else {
		e.hits++
		e.touchLocked(&c.node)
	}
	c.node.pin(pin)
	e.mu.Unlock()
	// The caller takes the pin over only on success. On an error, or on
	// a panic that the engine's panic boundary recovers into poisoning,
	// nobody else would release it.
	kept := false
	defer func() {
		if !kept {
			e.release(&c.node, pin)
		}
	}()
	c.once.Do(func() {
		cost := c.compute(compute)
		e.mu.Lock()
		switch {
		case c.err == nil:
			e.chargeLocked(&c.node, cost)
		case isCancelErr(c.err) && m.cells[key] == c:
			// Never charged; the next lookup computes afresh.
			delete(m.cells, key)
		}
		e.mu.Unlock()
		if c.err == nil {
			e.emit(ev)
		}
	})
	if c.err != nil {
		return nil, c.err
	}
	kept = true
	return c, nil
}

// compute runs f for the cell and returns the cost of its value.
// sync.Once counts a panicking function as done, so a panic in f first
// settles the cell as failed with the *PanicError it becomes, and only
// then goes on to the engine's panic boundary. A caller that joined the
// cell, or looks it up before that boundary poisons the engine, thus
// fails with the panic instead of reading the zero value as the
// artifact.
func (c *memoCell[V]) compute(f func() (V, int64, error)) (cost int64) {
	defer func() {
		if r := recover(); r != nil {
			c.err = newPanicError(r)
			panic(r)
		}
	}()
	c.val, cost, c.err = f()
	return cost
}

// valueOf returns a cell's value, or the error get returned instead.
func valueOf[V any](c *memoCell[V], err error) (V, error) {
	if err != nil {
		var zero V
		return zero, err
	}
	return c.val, nil
}
