package core

// This file implements the Engine's bounded artifact memory
// (EngineOptions.MaxArtifactBytes). Every cell of the five memo tables
// (see memo.go and engine.go) — classification fixpoints, SRB
// guaranteed-hit vectors, warm IPET contexts, FMM artifacts and
// transient hit bounds — carries an estimated byte cost (the MemBytes
// estimators of internal/absint, internal/ipet and internal/lp) and an
// intrusive LRU node. When the estimated resident total exceeds the
// budget, least-recently-used unpinned artifacts are evicted: removed
// from their table so the next query that needs them recomputes them
// from scratch.
//
// Eviction is behavior-invariant by construction: every artifact is an
// immutable pure function of its key, so evict → recompute yields
// byte-identical data, and an in-flight query that still holds an
// evicted value keeps reading valid immutable state. The eviction tests
// assert both properties with the Hook counters (the recomputation
// fires the hook again) and full-result DeepEqual. Two policy points
// follow from treating every artifact alike, and neither can change a
// result — under a byte budget they only decide which artifacts get
// recomputed:
//
//  1. Each artifact is evicted by the LRU alone. Evicting a WCET context
//     does not evict the FMM artifacts and hit bounds computed from it:
//     they are keyed by the context's key, not owned by the context, and
//     a later context with that key finds them still resident.
//  2. The SRB guaranteed-hit vector is an artifact of its own, keyed like
//     its classification: it has its own LRU node and byte cost, and
//     MemStats counts it and its lookups like any other artifact.
//
// Pinning keeps the accounting honest across the artifact dependency
// edges: a resident WCET context pins the classifications it references
// (they cannot be evicted out from under it, which would leave
// resident-but-unaccounted memory), and every in-flight query pins its
// context for the duration of the analysis. The pinned working set of
// one query is therefore the hard floor of the budget: MaxArtifactBytes
// below that floor still yields correct results, with everything
// evicted between queries.

import "repro/internal/faultpoint"

// memoNode is the LRU/accounting handle of one memoized artifact. All
// fields are guarded by Engine.mu.
type memoNode struct {
	cost int64
	pins int
	// depPins counts the subset of pins held by artifact dependency
	// edges (a resident context's hold on its classifications) rather
	// than by in-flight queries. pins > depPins therefore means a query
	// is actively using the artifact right now — the quantity the
	// PinnedBytes leak metric reports.
	depPins int
	linked  bool
	prev    *memoNode
	next    *memoNode
	// drop removes the artifact from its memo table and releases its
	// dependency pins. Called with Engine.mu held, after the node has
	// been unlinked and its cost subtracted.
	drop func()
}

// pin takes one hold of kind k on the node.
func (n *memoNode) pin(k pinKind) {
	if k != pinNone {
		n.pins++
	}
	if k == pinDep {
		n.depPins++
	}
}

// unpin drops one hold of kind k; the caller enforces the budget.
func (n *memoNode) unpin(k pinKind) {
	if k != pinNone {
		n.pins--
	}
	if k == pinDep {
		n.depPins--
	}
}

// release drops one hold of kind k and enforces the budget, which the
// hold may have been keeping the node out of.
func (e *Engine) release(n *memoNode, k pinKind) {
	if k == pinNone {
		return
	}
	e.mu.Lock()
	n.unpin(k)
	e.evictLocked()
	e.mu.Unlock()
}

// MemStats is a snapshot of the engine's artifact-memory accounting.
type MemStats struct {
	// ArtifactBytes is the estimated resident bytes of all memoized
	// artifacts (classification fixpoints, warm IPET contexts, FMM
	// columns). Estimates come from the MemBytes cost model, not the
	// allocator, so treat them as consistent, not byte-exact.
	ArtifactBytes int64
	// MaxArtifactBytes echoes the configured budget (<= 0: unbounded).
	MaxArtifactBytes int64
	// Artifacts is the number of resident memoized artifacts.
	Artifacts int
	// Hits and Misses count memo-table lookups: a hit found the
	// artifact (possibly still being computed by another goroutine), a
	// miss created the entry and triggered a computation.
	Hits, Misses uint64
	// Evictions counts artifacts evicted under the byte budget;
	// EvictedBytes is their cumulative estimated size.
	Evictions    uint64
	EvictedBytes int64
	// PinnedBytes and PinnedArtifacts describe the working set pinned
	// by in-flight queries right now. Steady-state dependency pins (a
	// resident context's hold on its classification entries) guard
	// eviction order but are excluded here, so with no query in flight
	// both are zero — the leak tests assert a canceled query drops back
	// to zero like a completed one.
	PinnedBytes     int64
	PinnedArtifacts int
	// Poisoned reports the engine panicked and is unusable (see
	// ErrPoisoned). When the panic left the accounting mutex held, the
	// snapshot contains only this flag — MemStats never blocks on a
	// poisoned engine's dead lock.
	Poisoned bool
}

// MemStats returns a consistent snapshot of the artifact-memory
// accounting. Safe for concurrent use, including on poisoned engines
// (which may have died holding the lock — then only Poisoned is set).
func (e *Engine) MemStats() MemStats {
	if e.poisoned.Load() {
		if !e.mu.TryLock() {
			return MemStats{Poisoned: true}
		}
	} else {
		e.mu.Lock()
	}
	defer e.mu.Unlock()
	var pinned int64
	var pinnedN int
	for n := e.lruHead; n != nil; n = n.next {
		if n.pins > n.depPins {
			pinned += n.cost
			pinnedN++
		}
	}
	return MemStats{
		ArtifactBytes:    e.resident,
		MaxArtifactBytes: e.maxBytes,
		Artifacts:        e.artifacts,
		Hits:             e.hits,
		Misses:           e.misses,
		Evictions:        e.evictions,
		EvictedBytes:     e.evictedBytes,
		PinnedBytes:      pinned,
		PinnedArtifacts:  pinnedN,
		Poisoned:         e.poisoned.Load(),
	}
}

// linkFrontLocked inserts the node at the most-recently-used end.
func (e *Engine) linkFrontLocked(n *memoNode) {
	n.prev, n.next = nil, e.lruHead
	if e.lruHead != nil {
		e.lruHead.prev = n
	}
	e.lruHead = n
	if e.lruTail == nil {
		e.lruTail = n
	}
	n.linked = true
	e.artifacts++
}

// unlinkLocked removes the node from the LRU list (list surgery only;
// accounting is the caller's job).
func (e *Engine) unlinkLocked(n *memoNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		e.lruHead = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		e.lruTail = n.prev
	}
	n.prev, n.next = nil, nil
	n.linked = false
	e.artifacts--
}

// touchLocked marks the node most recently used. Nodes that are not
// linked yet (still being computed) or already evicted are left alone.
func (e *Engine) touchLocked(n *memoNode) {
	if !n.linked || e.lruHead == n {
		return
	}
	e.unlinkLocked(n)
	e.linkFrontLocked(n)
}

// chargeLocked adds delta estimated bytes to the node, linking it into
// the LRU on first charge, and enforces the budget.
func (e *Engine) chargeLocked(n *memoNode, delta int64) {
	n.cost += delta
	e.resident += delta
	if !n.linked {
		e.linkFrontLocked(n)
	}
	e.evictLocked()
}

// evictNodeLocked unlinks one node and settles its accounting, then
// runs its drop callback (table removal, dependency unpinning).
func (e *Engine) evictNodeLocked(n *memoNode) {
	e.unlinkLocked(n)
	e.resident -= n.cost
	e.evictions++
	e.evictedBytes += n.cost
	n.drop()
}

// evictLocked evicts least-recently-used unpinned artifacts until the
// resident estimate fits the budget (or only pinned artifacts remain —
// the working set of in-flight queries is never evicted).
func (e *Engine) evictLocked() {
	// Chaos injection: evict every unpinned artifact regardless of the
	// budget. Behavior-invariant by the same argument as regular
	// eviction — pinned working sets survive, everything else recomputes
	// byte-identically — which is exactly what the soak harness asserts
	// under this fault.
	force := faultpoint.Enabled && faultpoint.Fires(faultpoint.SiteForceEvict)
	for force || (e.maxBytes > 0 && e.resident > e.maxBytes) {
		victim := e.lruTail
		for victim != nil && victim.pins > 0 {
			victim = victim.prev
		}
		if victim == nil {
			return
		}
		e.evictNodeLocked(victim)
	}
}
