package core

// This file implements the session layer of the analysis: a reusable
// Engine that memoizes the program- and cache-level artifacts of the
// pipeline so that sweeps — the paper's whole evaluation is sweeps over
// pfail points, mechanisms, exceedance targets and cache geometries —
// pay for CFG construction, the Must/May/Persistence fixpoints, the
// IPET system, the fault-free WCET and the per-set FMM ILP solves
// exactly once per distinct configuration, instead of once per query.
//
// Artifact layers and their keys:
//
//   - program level (NewEngine): loop-metadata verification,
//     reducibility check, the IPET constraint system with its phase-1
//     simplex basis;
//   - per (cache config, reference kind): the abstract-interpretation
//     analyzer with its classification fixpoints, and lazily the SRB
//     guaranteed-hit classification;
//   - per (instruction cache, optional data cache): a warm System
//     clone pivoted by exactly the fault-free WCET solve, plus the
//     WCET result itself;
//   - per (context, reference kind, FMM artifact): the
//     mechanism-independent f < W FMM columns (one ILP solve per set
//     and fault count) and the three flavours of the f = W column
//     (none, SRB, precise SRB), from which any mechanism's FMM is
//     spliced without further solves;
//   - per context: the transient hit-bound vector (one ILP solve per
//     set), shared by every transient and combined scenario — the
//     bound does not depend on lambda, pfail or mechanism, so a lambda
//     sweep computes it exactly once.
//
// A Query then only performs the cheap per-query work: the fault model
// of equation 1, the probability weighting of equations 2/3, the
// penalty convolution, and the quantile read-off. In a batch, only the
// read-off is per query: the penalty distribution does not depend on
// the exceedance target, so queries that differ only in their targets
// form one group that weights and convolves once, and each member reads
// its own quantile off the shared distribution. Every artifact is a
// pure function of its key, so batch scheduling can never change any
// result; AnalyzeBatch results are byte-identical to independent
// Analyze calls whatever the worker count, grouping or completion
// order.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/absint"
	"repro/internal/cache"
	"repro/internal/cfg"
	"repro/internal/chmc"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/faultpoint"
	"repro/internal/ipet"
	"repro/internal/program"
)

// Query selects one analysis configuration to run against an Engine's
// program. The zero value of each field selects the same default as the
// corresponding Options field (paper cache, 1e-15 target, 4096 support
// cap); Workers is not part of a Query — parallelism belongs to the
// Engine, and results never depend on it.
type Query struct {
	// Cache is the instruction-cache geometry. Zero value = PaperConfig.
	Cache cache.Config
	// Pfail is the per-bit permanent failure probability — the legacy
	// spelling of Scenario = fault.Permanent{Pfail} (see
	// Options.Pfail).
	Pfail float64
	// Scenario selects the fault environment (see Options.Scenario).
	// nil defaults to fault.Permanent{Pfail: Pfail}. Scenario
	// parameters only shape the per-query probability weighting: the
	// memoized artifacts they read (classification, WCET, FMM columns,
	// transient hit bounds) are scenario-independent, so a lambda or
	// pfail sweep computes each artifact exactly once.
	Scenario fault.Scenario
	// Mechanism selects the reliability hardware (None, RW, SRB).
	Mechanism cache.Mechanism
	// TargetExceedance is the probability at which the pWCET is read
	// (default 1e-15). It is the only field that does not shape the
	// penalty distribution: in a batch, queries that differ only in
	// their targets read their pWCETs off one shared distribution.
	TargetExceedance float64
	// MaxSupport caps the convolution support size (default 4096).
	MaxSupport int
	// Coarsen selects the coarsening strategy enforcing MaxSupport
	// (zero value: dist.CoarsenLeastError). The strategy only shapes
	// the per-query distribution stage, which is never memoized: every
	// cached artifact (classification, WCET, FMM) is a pure function of
	// keys the strategy is not part of BECAUSE it cannot influence them
	// — fault-miss counts are convolution-free. Two queries differing
	// only in Coarsen therefore share every artifact and still can
	// never alias each other's distributions or results (asserted by
	// TestEngineCoarsenStrategyNoAliasing).
	Coarsen dist.CoarsenStrategy
	// PreciseSRB enables the refined SRB analysis (mixture bound).
	PreciseSRB bool
	// DataCache, when non-nil, additionally analyzes data accesses
	// against this configuration (not combinable with PreciseSRB).
	DataCache *cache.Config
	// SoftDeadline, when positive, arms the degraded mode: if one
	// attempt of the query does not finish within this duration, the
	// engine retries with a geometrically tighter MaxSupport cap
	// (quartering down to a floor of 16 support points) and marks the
	// result Degraded instead of failing. The final floor attempt runs
	// without the soft deadline, so a query only fails outright when
	// the caller's own context expires. Degradation is sound:
	// coarsening is tail-preserving, so every degraded pWCET
	// upper-bounds the exact one (see Result.Degraded). Zero disables
	// the mechanism — queries run to completion at full precision.
	//
	// SoftDeadline is not part of any memo key: artifacts computed by a
	// degraded attempt are the same pure functions of their keys as
	// always, and the per-query distribution stage is never memoized.
	SoftDeadline time.Duration
}

// options converts the query to the equivalent one-shot Options.
func (q Query) options(workers int) Options {
	return Options{
		Cache:            q.Cache,
		Pfail:            q.Pfail,
		Scenario:         q.Scenario,
		Mechanism:        q.Mechanism,
		TargetExceedance: q.TargetExceedance,
		MaxSupport:       q.MaxSupport,
		Coarsen:          q.Coarsen,
		PreciseSRB:       q.PreciseSRB,
		DataCache:        q.DataCache,
		Workers:          workers,
	}
}

// queryOf converts one-shot Options to the equivalent Query.
func queryOf(o Options) Query {
	return Query{
		Cache:            o.Cache,
		Pfail:            o.Pfail,
		Scenario:         o.Scenario,
		Mechanism:        o.Mechanism,
		TargetExceedance: o.TargetExceedance,
		MaxSupport:       o.MaxSupport,
		Coarsen:          o.Coarsen,
		PreciseSRB:       o.PreciseSRB,
		DataCache:        o.DataCache,
	}
}

// Artifact identifies one class of memoized computation. Hook callbacks
// receive the artifact kind so tests and monitoring can count how often
// the expensive stages actually run.
type Artifact int

const (
	// ArtifactClassification is the Must/May/Persistence fixpoints and
	// CHMC classification of one cache configuration.
	ArtifactClassification Artifact = iota
	// ArtifactSRBClassification is the SRB guaranteed-hit fixpoint.
	ArtifactSRBClassification
	// ArtifactWCET is the fault-free IPET WCET solve of one
	// (instruction cache, data cache) context.
	ArtifactWCET
	// ArtifactFMMCore is the mechanism-independent f < W columns of the
	// fault miss map (one ILP solve per set and fault count).
	ArtifactFMMCore
	// ArtifactFMMColumn is one flavour of the f = W column; the event's
	// Mechanism and Precise fields identify which.
	ArtifactFMMColumn
	// ArtifactTransientBound is the per-set transient hit-bound vector
	// (one ILP solve per set), shared by every transient and combined
	// scenario of one context — the bound is independent of lambda,
	// pfail and mechanism.
	ArtifactTransientBound
)

// String names the artifact kind for logs and test failures.
func (a Artifact) String() string {
	switch a {
	case ArtifactClassification:
		return "classification"
	case ArtifactSRBClassification:
		return "srb-classification"
	case ArtifactWCET:
		return "wcet"
	case ArtifactFMMCore:
		return "fmm-core"
	case ArtifactFMMColumn:
		return "fmm-column"
	case ArtifactTransientBound:
		return "transient-bound"
	default:
		return fmt.Sprintf("artifact(%d)", int(a))
	}
}

// ArtifactEvent describes one artifact computation (not a cache hit).
type ArtifactEvent struct {
	// Artifact is the kind of computation that ran.
	Artifact Artifact
	// Cache is the cache configuration the artifact belongs to.
	Cache cache.Config
	// Data marks artifacts of a data-cache reference stream.
	Data bool
	// Mechanism qualifies ArtifactFMMColumn events (None or SRB).
	Mechanism cache.Mechanism
	// Precise marks the precise-SRB f = W column.
	Precise bool
}

// EngineOptions configures an Engine.
type EngineOptions struct {
	// Workers bounds the goroutines used by the per-set stages of each
	// analysis and by AnalyzeBatch's scheduling. 0 means GOMAXPROCS, 1
	// is fully sequential; negative values are rejected. When a batch
	// fans out over its groups of queries, each group's own
	// distribution stages run sequentially (the pool is already
	// saturated), so the bound is not multiplied. Results are
	// byte-identical for every worker count.
	Workers int
	// Hook, when non-nil, is called once per artifact actually computed
	// (memo hits do not fire it). Calls may come from any worker
	// goroutine; the callback must be safe for concurrent use.
	Hook func(ArtifactEvent)
	// Reference builds every artifact on the retained reference
	// implementations (dense simplex, map-based abstract domain) —
	// see Options.Reference. Bit-identical results, much slower;
	// for differential validation only.
	Reference bool
	// ExactConvolve routes every query's penalty reduction through the
	// retained reference convolution executor — see
	// Options.ExactConvolve. The convolution analogue of Reference:
	// byte-identical results whenever no coarsening binds, final-
	// coarsen-only semantics (no in-tree coarsening) when it does.
	ExactConvolve bool
	// MaxArtifactBytes bounds the estimated resident bytes of the
	// engine's memoized artifacts (classification fixpoints, warm IPET
	// contexts, FMM columns). When an artifact computation pushes the
	// estimate over the budget, least-recently-used artifacts are
	// evicted and recomputed on next use — eviction is behavior-
	// invariant (evicted artifacts are pure functions of their keys, so
	// recomputation is byte-identical; asserted by the eviction tests)
	// and changes only memory and wall-clock time, never any result.
	// The pinned working set of one in-flight query is the effective
	// floor: budgets below it still behave correctly, evicting
	// everything between queries.
	//
	// <= 0 (the zero value) keeps the historical behavior: every
	// artifact is retained for the lifetime of the Engine, unbounded.
	// Long-lived processes serving many programs or cache geometries
	// (e.g. internal/serve's engine pool) should set a budget.
	MaxArtifactBytes int64
}

// Engine is a reusable analysis session for one program. It memoizes
// every expensive artifact (see the file comment for the layering), so
// repeated Analyze calls and AnalyzeBatch sweeps that vary only pfail,
// mechanism or target skip straight to the cheap probability weighting.
//
// An Engine is safe for concurrent use; all memoized artifacts are pure
// functions of their keys, so results are byte-identical to independent
// one-shot Analyze calls with the same Workers setting, in any order.
// By default memoized artifacts are retained for the lifetime of the
// Engine (unbounded memory); EngineOptions.MaxArtifactBytes bounds the
// estimated resident total with LRU eviction, trading recomputation for
// memory without ever changing a result. MemStats reports the resident
// estimate and the hit/miss/eviction counters.
type Engine struct {
	p        *program.Program
	workers  int
	hook     func(ArtifactEvent)
	ref      bool
	exact    bool
	maxBytes int64
	pristine *ipet.System

	// poisoned is set when a query panicked inside the engine (see
	// PanicError): internal memo state may be partially constructed, so
	// every later call fails fast with ErrPoisoned instead of touching
	// it. panicVal retains the first panic for the error message.
	poisoned atomic.Bool
	panicVal atomic.Pointer[PanicError]

	mu      sync.Mutex
	classes map[classKey]*classEntry
	ctxs    map[ctxKey]*ctxEntry

	// Artifact-memory accounting (see memory.go), guarded by mu.
	lruHead, lruTail *memoNode
	resident         int64
	artifacts        int
	hits, misses     uint64
	evictions        uint64
	evictedBytes     int64
}

// classKey identifies one classification artifact: a cache geometry
// applied to one of the program's two reference streams.
type classKey struct {
	cfg  cache.Config
	data bool
}

// classEntry memoizes the analyzer and classification of one classKey.
type classEntry struct {
	node *memoNode
	once sync.Once
	a    *absint.Analyzer
	base []chmc.Class

	srbOnce sync.Once
	srbHit  []bool
}

// ctxKey identifies one WCET context: the instruction cache plus the
// optional data cache (the combined objective pivots the simplex
// differently, so contexts with and without a data cache are distinct).
type ctxKey struct {
	icfg    cache.Config
	dcfg    cache.Config
	hasData bool
}

// ctxEntry memoizes one context's warm system, WCET and FMM artifacts.
// The fmms map and fmmList are guarded by Engine.mu; fmmList mirrors the
// map as a slice so evicting a whole context can settle its FMM nodes
// without a map iteration.
type ctxEntry struct {
	node *memoNode
	once sync.Once
	err  error

	ic, dc *classEntry
	sys    *ipet.System
	wcet   *ipet.WCETResult

	fmms    map[fmmKey]*fmmEntry
	fmmList []*fmmEntry

	// hbe memoizes the context's transient hit-bound vector (guarded by
	// Engine.mu like fmms); nil until a transient or combined query
	// needs it, and reset to nil on eviction.
	hbe *hbEntry
}

// hbEntry memoizes the per-set transient hit bounds of one context —
// like the FMM artifacts, an independently evictable pure function of
// the context key (the bounds depend only on the classification and the
// constraint system, not on lambda, pfail or mechanism).
type hbEntry struct {
	node *memoNode
	once sync.Once
	hb   ipet.HitBounds
	err  error
}

// fmmKind selects one memoized FMM artifact of a context.
type fmmKind int

const (
	// fmmCore is the mechanism-independent f < W columns (computed with
	// MechanismRW, which skips the f = W solve entirely).
	fmmCore fmmKind = iota
	// fmmNoneColumn is the unprotected f = W column.
	fmmNoneColumn
	// fmmSRBColumn is the SRB-filtered f = W column.
	fmmSRBColumn
	// fmmPreciseColumn is the precise-SRB f = W column.
	fmmPreciseColumn
)

type fmmKey struct {
	kind fmmKind
	data bool
}

type fmmEntry struct {
	key  fmmKey
	node *memoNode
	once sync.Once
	fmm  ipet.FMM
	err  error
}

// NewEngine builds an analysis session for the program: it verifies the
// loop metadata and reducibility once, constructs the IPET constraint
// system and runs simplex phase 1. Everything else is computed lazily
// and memoized as queries need it.
func NewEngine(p *program.Program, opt EngineOptions) (*Engine, error) {
	if opt.Workers < 0 {
		return nil, fmt.Errorf("core: Workers %d is negative (0 means GOMAXPROCS)", opt.Workers)
	}
	if faultpoint.Enabled {
		if err := faultpoint.Hit(faultpoint.SiteEngineBuild); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	// Soundness gate, identical to Analyze: IPET loop-bound constraints
	// are only valid for verified natural loops on a reducible CFG.
	if err := cfg.VerifyLoopMetadata(p); err != nil {
		return nil, fmt.Errorf("core: %s: %w", p.Name, err)
	}
	if !cfg.Reducible(p) {
		return nil, fmt.Errorf("core: %s: irreducible control flow", p.Name)
	}
	newSystem := ipet.NewSystem
	if opt.Reference {
		newSystem = ipet.NewReferenceSystem
	}
	sys, err := newSystem(p)
	if err != nil {
		return nil, err
	}
	return &Engine{
		p:        p,
		workers:  opt.Workers,
		hook:     opt.Hook,
		ref:      opt.Reference,
		exact:    opt.ExactConvolve,
		maxBytes: opt.MaxArtifactBytes,
		pristine: sys,
		classes:  make(map[classKey]*classEntry),
		ctxs:     make(map[ctxKey]*ctxEntry),
	}, nil
}

// Program returns the program the engine analyzes.
func (e *Engine) Program() *program.Program { return e.p }

// Workers returns the engine's worker bound (0 means GOMAXPROCS).
func (e *Engine) Workers() int { return e.workers }

func (e *Engine) emit(ev ArtifactEvent) {
	if e.hook != nil {
		e.hook(ev)
	}
}

// class returns the memoized classification of one cache configuration,
// computing the fixpoints on first use. The entry is pinned for the
// caller — class is only called from context construction, and the
// resulting context holds the pin until it is itself evicted (or its
// construction fails), so a resident context can never reference an
// evicted, unaccounted classification.
func (e *Engine) class(cfg cache.Config, data bool) *classEntry {
	key := classKey{cfg: cfg, data: data}
	e.mu.Lock()
	c := e.classes[key]
	if c == nil {
		c = &classEntry{}
		c.node = &memoNode{drop: func(e *Engine) { delete(e.classes, key) }}
		e.classes[key] = c
		e.misses++
	} else {
		e.hits++
		e.touchLocked(c.node)
	}
	// A dependency pin: held by the owning context for its resident
	// lifetime, not by the query that happens to be constructing it.
	c.node.pins++
	c.node.depPins++
	e.mu.Unlock()
	c.once.Do(func() {
		switch {
		case data && e.ref:
			c.a = absint.NewDataReference(e.p, cfg)
		case data:
			c.a = absint.NewData(e.p, cfg)
		case e.ref:
			c.a = absint.NewReference(e.p, cfg)
		default:
			c.a = absint.New(e.p, cfg)
		}
		c.base = c.a.ClassifyAll()
		e.mu.Lock()
		e.chargeLocked(c.node, c.a.MemBytes()+int64(cap(c.base)))
		e.mu.Unlock()
		e.emit(ArtifactEvent{Artifact: ArtifactClassification, Cache: cfg, Data: data})
	})
	return c
}

// srb returns the memoized SRB guaranteed-hit classification. Its bytes
// are charged onto the owning classification's node (it shares that
// artifact's lifetime and key).
func (e *Engine) srb(c *classEntry, data bool) []bool {
	c.srbOnce.Do(func() {
		c.srbHit = c.a.ClassifySRB()
		e.mu.Lock()
		e.chargeLocked(c.node, int64(cap(c.srbHit)))
		e.mu.Unlock()
		e.emit(ArtifactEvent{Artifact: ArtifactSRBClassification, Cache: c.a.Config(), Data: data})
	})
	return c.srbHit
}

// context returns the memoized WCET context of the query's cache pair:
// a private System warmed by exactly the fault-free WCET solve a
// one-shot Analyze would run, and the WCET result. Genuine analysis
// errors are sticky; cancellation errors are not — a canceled entry is
// dropped from the memo map inside its sync.Once, so a caller whose own
// context is still live retries against a fresh entry instead of
// inheriting another query's cancellation.
//
// The returned context is pinned for the calling query — it cannot be
// evicted while the analysis uses it. The caller must releaseCtx it
// (analyze defers this); on error the pin is dropped here.
func (e *Engine) context(qctx context.Context, icfg cache.Config, dcfg *cache.Config) (*ctxEntry, error) {
	for {
		ce, err := e.contextOnce(qctx, icfg, dcfg)
		if err == nil {
			return ce, nil
		}
		if !isCancelErr(err) || qctx.Err() != nil {
			return nil, err
		}
		// The shared computation was canceled by the context of whichever
		// query created the entry; ours is still live and the canceled
		// entry is already out of the memo map, so retry computes fresh.
	}
}

func (e *Engine) contextOnce(qctx context.Context, icfg cache.Config, dcfg *cache.Config) (*ctxEntry, error) {
	key := ctxKey{icfg: icfg}
	if dcfg != nil {
		key.dcfg, key.hasData = *dcfg, true
	}
	e.mu.Lock()
	ce := e.ctxs[key]
	if ce == nil {
		ce = &ctxEntry{fmms: make(map[fmmKey]*fmmEntry)}
		entry := ce
		ce.node = &memoNode{drop: func(e *Engine) { e.dropCtxLocked(key, entry) }}
		e.ctxs[key] = ce
		e.misses++
	} else {
		e.hits++
		e.touchLocked(ce.node)
	}
	ce.node.pins++
	e.mu.Unlock()
	// analyze's releaseCtx defer is only registered once this returns;
	// a panic inside the computation (recovered into engine poisoning by
	// analyzeOnce) must not strand the query pin taken above.
	defer func() {
		if r := recover(); r != nil {
			e.releaseCtx(ce)
			panic(r)
		}
	}()
	ce.once.Do(func() {
		ce.ic = e.class(icfg, false) // pins the classification until ctx eviction
		if key.hasData {
			ce.dc = e.class(key.dcfg, true)
		}
		// The clone starts from the pristine phase-1 basis, exactly like
		// a fresh NewSystem; the WCET solve below pivots only this
		// clone, so it is the context's sole warm-up — afterwards the
		// system is only ever read (ComputeFMM workers clone from it).
		ce.sys = e.pristine.Clone()
		var da *absint.Analyzer
		var dbase []chmc.Class
		if ce.dc != nil {
			da, dbase = ce.dc.a, ce.dc.base
		}
		if qctx.Done() != nil {
			// Abandon the WCET solve between pivot batches when the
			// creating query's context dies; cleared below so the warm
			// system never retains a dead query's probe.
			ce.sys.SetCancel(qctx.Err)
		}
		ce.wcet, ce.err = ipet.WCETCombined(ce.sys, ce.ic.a, ce.ic.base, da, dbase)
		ce.sys.SetCancel(nil)
		e.mu.Lock()
		if ce.err != nil {
			// The sticky error entry stays for dedup, but it is never
			// charged or evicted, so it must not pin its classifications.
			// Cancellation is not a property of the key: drop the entry so
			// the next query recomputes instead of seeing a dead context's
			// error forever.
			e.unpinClassesLocked(ce)
			if isCancelErr(ce.err) && e.ctxs[key] == ce {
				delete(e.ctxs, key)
			}
		} else {
			cost := ce.sys.WarmMemBytes() + int64(cap(ce.wcet.BlockCounts))*8
			e.chargeLocked(ce.node, cost)
		}
		e.mu.Unlock()
		if ce.err == nil {
			e.emit(ArtifactEvent{Artifact: ArtifactWCET, Cache: icfg, Data: key.hasData})
		}
	})
	if ce.err != nil {
		e.releaseCtx(ce)
		return nil, ce.err
	}
	return ce, nil
}

// releaseCtx drops a query's pin on its context and enforces the byte
// budget now that the query's working set is no longer pinned.
func (e *Engine) releaseCtx(ctx *ctxEntry) {
	e.mu.Lock()
	ctx.node.pins--
	e.evictLocked()
	e.mu.Unlock()
}

// unpinClassesLocked releases the context's pins on its classification
// entries (on context eviction, or when construction failed).
func (e *Engine) unpinClassesLocked(ctx *ctxEntry) {
	if ctx.ic != nil {
		ctx.ic.node.pins--
		ctx.ic.node.depPins--
	}
	if ctx.dc != nil {
		ctx.dc.node.pins--
		ctx.dc.node.depPins--
	}
}

// dropCtxLocked is the context node's drop callback: it removes the
// context from the memo map, settles its resident FMM artifacts and
// releases the classification pins.
func (e *Engine) dropCtxLocked(key ctxKey, ctx *ctxEntry) {
	delete(e.ctxs, key)
	e.unpinClassesLocked(ctx)
	for _, fe := range ctx.fmmList {
		if fe.node.linked {
			e.evictNodeLocked(fe.node)
		}
	}
	if ctx.hbe != nil && ctx.hbe.node.linked {
		e.evictNodeLocked(ctx.hbe.node)
	}
}

// fmmArtifact returns one memoized FMM artifact of the context. The
// caller must hold a pin on the context (analyze does, for the whole
// query), which keeps the context — though not necessarily this FMM
// entry — resident while the artifact is computed and read. Like
// context, a cancellation error drops the entry and a live caller
// retries; genuine solver errors stay sticky.
func (e *Engine) fmmArtifact(qctx context.Context, ce *ctxEntry, key fmmKey) (ipet.FMM, error) {
	for {
		fmm, err := e.fmmArtifactOnce(qctx, ce, key)
		if err == nil || !isCancelErr(err) || qctx.Err() != nil {
			return fmm, err
		}
	}
}

func (e *Engine) fmmArtifactOnce(qctx context.Context, ce *ctxEntry, key fmmKey) (ipet.FMM, error) {
	e.mu.Lock()
	entry := ce.fmms[key]
	if entry == nil {
		entry = &fmmEntry{key: key}
		entry.node = &memoNode{drop: func(e *Engine) { delete(ce.fmms, key) }}
		ce.fmms[key] = entry
		// Compact evicted entries out of the list mirror so evict/
		// recompute churn on a long-lived context cannot grow it without
		// bound (at most one live entry per fmmKey survives).
		live := ce.fmmList[:0]
		for _, fe := range ce.fmmList {
			if ce.fmms[fe.key] == fe {
				live = append(live, fe)
			}
		}
		ce.fmmList = append(live, entry)
		e.misses++
	} else {
		e.hits++
		e.touchLocked(entry.node)
	}
	e.mu.Unlock()
	entry.once.Do(func() {
		c := ce.ic
		if key.data {
			c = ce.dc
		}
		opt := ipet.FMMOptions{Workers: e.workers}
		if qctx.Done() != nil {
			opt.Ctx = qctx // per-set and pivot-batch cancellation checks
		}
		ev := ArtifactEvent{Cache: c.a.Config(), Data: key.data}
		switch key.kind {
		case fmmCore:
			// MechanismRW never reaches the f = W column, so its FMM is
			// exactly the mechanism-independent f < W columns.
			opt.Mechanism = cache.MechanismRW
			ev.Artifact, ev.Mechanism = ArtifactFMMCore, cache.MechanismRW
		case fmmNoneColumn:
			opt.Mechanism = cache.MechanismNone
			opt.OnlyWholeSetColumn = true
			ev.Artifact, ev.Mechanism = ArtifactFMMColumn, cache.MechanismNone
		case fmmSRBColumn:
			opt.Mechanism = cache.MechanismSRB
			opt.SRBHit = e.srb(c, key.data)
			opt.OnlyWholeSetColumn = true
			ev.Artifact, ev.Mechanism = ArtifactFMMColumn, cache.MechanismSRB
		case fmmPreciseColumn:
			// The precise column classifies per set (ClassifySRBForSet);
			// the SRB guaranteed-hit vector is not consulted.
			opt.Mechanism = cache.MechanismSRB
			opt.PreciseSRB = true
			opt.OnlyWholeSetColumn = true
			ev.Artifact, ev.Mechanism, ev.Precise = ArtifactFMMColumn, cache.MechanismSRB, true
		}
		entry.fmm, entry.err = ipet.ComputeFMM(ce.sys, c.a, c.base, opt)
		switch {
		case entry.err == nil:
			e.mu.Lock()
			e.chargeLocked(entry.node, entry.fmm.MemBytes())
			e.mu.Unlock()
			e.emit(ev)
		case isCancelErr(entry.err):
			// Never charged; drop so the next query recomputes instead of
			// inheriting this query's cancellation. The stale pointer left
			// in fmmList is filtered by the ce.fmms[fe.key] == fe guards.
			e.mu.Lock()
			if ce.fmms[key] == entry {
				delete(ce.fmms, key)
			}
			e.mu.Unlock()
		}
	})
	return entry.fmm, entry.err
}

// hitBounds returns the context's memoized transient hit-bound vector,
// solving the per-set ILPs on first use. The caller must hold a pin on
// the context (analyze does); the vector itself is never mutated after
// construction, so returning the memoized slice directly is safe even
// across a later eviction. Cancellation errors drop the entry and a
// live caller retries, exactly like fmmArtifact.
func (e *Engine) hitBounds(qctx context.Context, ce *ctxEntry) (ipet.HitBounds, error) {
	for {
		hb, err := e.hitBoundsOnce(qctx, ce)
		if err == nil || !isCancelErr(err) || qctx.Err() != nil {
			return hb, err
		}
	}
}

func (e *Engine) hitBoundsOnce(qctx context.Context, ce *ctxEntry) (ipet.HitBounds, error) {
	e.mu.Lock()
	entry := ce.hbe
	if entry == nil {
		entry = &hbEntry{}
		entry.node = &memoNode{drop: func(e *Engine) { ce.hbe = nil }}
		ce.hbe = entry
		e.misses++
	} else {
		e.hits++
		e.touchLocked(entry.node)
	}
	e.mu.Unlock()
	entry.once.Do(func() {
		c := ce.ic
		opt := ipet.HitBoundOptions{Workers: e.workers}
		if qctx.Done() != nil {
			opt.Ctx = qctx
		}
		entry.hb, entry.err = ipet.ComputeHitBounds(ce.sys, c.a, c.base, opt)
		switch {
		case entry.err == nil:
			e.mu.Lock()
			e.chargeLocked(entry.node, entry.hb.MemBytes())
			e.mu.Unlock()
			e.emit(ArtifactEvent{Artifact: ArtifactTransientBound, Cache: c.a.Config()})
		case isCancelErr(entry.err):
			e.mu.Lock()
			if ce.hbe == entry {
				ce.hbe = nil
			}
			e.mu.Unlock()
		}
	})
	return entry.hb, entry.err
}

// fmmFor splices the requested mechanism's fault miss map from the
// memoized artifacts: the shared f < W columns plus the mechanism's
// f = W column. The returned FMM is a fresh copy the caller owns.
func (e *Engine) fmmFor(qctx context.Context, ctx *ctxEntry, data bool, mech cache.Mechanism, precise bool) (ipet.FMM, error) {
	core, err := e.fmmArtifact(qctx, ctx, fmmKey{kind: fmmCore, data: data})
	if err != nil {
		return nil, err
	}
	var column ipet.FMM
	switch {
	case precise:
		column, err = e.fmmArtifact(qctx, ctx, fmmKey{kind: fmmPreciseColumn, data: data})
	case mech == cache.MechanismNone:
		column, err = e.fmmArtifact(qctx, ctx, fmmKey{kind: fmmNoneColumn, data: data})
	case mech == cache.MechanismSRB:
		column, err = e.fmmArtifact(qctx, ctx, fmmKey{kind: fmmSRBColumn, data: data})
	}
	if err != nil {
		return nil, err
	}
	fmm := cloneFMM(core)
	if column != nil {
		c := ctx.ic
		if data {
			c = ctx.dc
		}
		ways := c.a.Config().Ways
		for s := range fmm {
			fmm[s][ways] = column[s][ways]
		}
	}
	return fmm, nil
}

// Analyze runs one query against the session, reusing every memoized
// artifact and computing only the per-query probability weighting,
// convolution and quantile. The result is byte-identical to a one-shot
// Analyze call with the same configuration. It is exactly
// AnalyzeContext under context.Background().
func (e *Engine) Analyze(q Query) (*Result, error) {
	return e.AnalyzeContext(context.Background(), q)
}

// AnalyzeContext is Analyze under a context. Cancellation is honored at
// every expensive boundary: before each memoized artifact, before every
// per-set ILP solve, between simplex pivot batches inside each solve,
// and at every merge node of the penalty convolution tree. A canceled
// query returns an error satisfying errors.Is(err, ctx.Err()) promptly,
// releases its LRU pins and leaks no goroutines; memoized artifacts
// are never left poisoned by a cancellation — a partially computed
// entry is dropped and the next query recomputes it.
func (e *Engine) AnalyzeContext(ctx context.Context, q Query) (*Result, error) {
	return e.analyze(ctx, q, e.workers)
}

// analyze runs one query with the per-query distribution stages
// bounded by stageWorkers, dispatching to the degraded-mode retry loop
// when the query arms a soft deadline. AnalyzeBatchStream's parallel
// path passes 1: the group-level fan-out already saturates the pool,
// and multiplying it by per-set parallelism would oversubscribe the
// machine. Stage parallelism never changes any result.
func (e *Engine) analyze(qctx context.Context, q Query, stageWorkers int) (*Result, error) {
	if q.SoftDeadline <= 0 {
		return e.analyzeOnce(qctx, q, stageWorkers)
	}
	return e.analyzeDegrade(qctx, q, stageWorkers)
}

// analyzeDegrade is the degraded-mode driver (Query.SoftDeadline): each
// attempt runs under a soft timeout with a geometrically tighter
// MaxSupport cap (quartered down to a floor of 16), and the final floor
// attempt runs without the soft timeout so the query completes unless
// the caller's own context expires. Tightening the cap only engages
// more coarsening, which is tail-preserving — every degraded result
// upper-bounds the exact pWCET (asserted by the dominance tests).
func (e *Engine) analyzeDegrade(qctx context.Context, q Query, stageWorkers int) (*Result, error) {
	const floorSupport = 16
	caps := []int{q.MaxSupport}
	if caps[0] == 0 {
		caps[0] = DefaultMaxSupport
	}
	for c := caps[len(caps)-1] >> 2; c > floorSupport; c >>= 2 {
		caps = append(caps, c)
	}
	if caps[len(caps)-1] > floorSupport {
		caps = append(caps, floorSupport)
	}
	soft := q.SoftDeadline
	q.SoftDeadline = 0
	for attempt, c := range caps {
		q.MaxSupport = c
		last := attempt == len(caps)-1
		actx := qctx
		var cancel context.CancelFunc
		if !last {
			actx, cancel = context.WithTimeout(qctx, soft)
		}
		res, err := e.analyzeOnce(actx, q, stageWorkers)
		if cancel != nil {
			cancel()
		}
		if err == nil {
			res.Degraded = attempt > 0
			return res, nil
		}
		// Retry only when the soft deadline (not the caller's context)
		// expired; genuine analysis errors and caller cancellation
		// propagate unchanged.
		if last || !errors.Is(err, context.DeadlineExceeded) || qctx.Err() != nil {
			return nil, err
		}
	}
	panic("core: degraded-mode attempt ladder exhausted without returning")
}

// analyzeOnce runs one attempt of one query. It is the engine's panic
// boundary: a panic anywhere in the analysis is recovered into a
// *PanicError and poisons the engine — internal memo state may be
// partially constructed, so every later call fails fast with
// ErrPoisoned. Pool owners (internal/serve) check Poisoned on release
// and discard poisoned engines instead of reusing them.
func (e *Engine) analyzeOnce(qctx context.Context, q Query, stageWorkers int) (res *Result, err error) {
	if e.poisoned.Load() {
		return nil, e.poisonError()
	}
	defer func() {
		if r := recover(); r != nil {
			pe := &PanicError{Value: r, Stack: debug.Stack()}
			e.poison(pe)
			res, err = nil, pe
		}
	}()
	if faultpoint.Enabled {
		if ferr := faultpoint.Hit(faultpoint.SiteAnalyze); ferr != nil {
			return nil, fmt.Errorf("core: %w", ferr)
		}
	}
	if err := qctx.Err(); err != nil {
		return nil, err
	}
	pl, err := e.resolve(q)
	if err != nil {
		return nil, err
	}
	opt, kind := pl.opt, pl.scn.Kind()

	ce, err := e.context(qctx, opt.Cache, opt.DataCache)
	if err != nil {
		return nil, err
	}
	// The context (and through it the classifications) stays pinned —
	// not evictable — for the rest of the query; the budget is enforced
	// against the unpinned remainder now and fully on release. The defer
	// also runs when the analysis panics (the recover above fires after
	// it), so even a poisoning query leaves no pinned bytes behind.
	defer e.releaseCtx(ce)
	var fmm ipet.FMM
	if kind != fault.KindTransient {
		fmm, err = e.fmmFor(qctx, ce, false, opt.Mechanism, false)
		if err != nil {
			return nil, err
		}
	}

	res = &Result{
		Program:       e.p.Name,
		Options:       opt,
		Scenario:      pl.scn,
		Model:         pl.model,
		FaultFreeWCET: ce.wcet.WCET,
		FMM:           fmm,
		HitRefs:       ce.wcet.HitRefs,
		FMRefs:        ce.wcet.FMRefs,
		MissRefs:      ce.wcet.MissRefs,
	}
	var probe func() error
	if qctx.Done() != nil {
		probe = qctx.Err // checked at every convolution merge node
	}
	if kind != fault.KindPermanent {
		res.HitBounds, err = e.hitBounds(qctx, ce)
		if err != nil {
			return nil, err
		}
	}
	if opt.DataCache != nil {
		dfmm, err := e.fmmFor(qctx, ce, true, opt.Mechanism, false)
		if err != nil {
			return nil, err
		}
		res.DataModel = pl.dmodel
		res.DataFMM = dfmm
	}
	if err := res.buildDistributionsCancel(stageWorkers, probe); err != nil {
		return nil, err
	}
	if opt.PreciseSRB && opt.Mechanism == cache.MechanismSRB {
		pfmm, err := e.fmmFor(qctx, ce, false, opt.Mechanism, true)
		if err != nil {
			return nil, err
		}
		if err := res.attachPreciseSRB(pfmm, stageWorkers, probe); err != nil {
			return nil, err
		}
	}
	res.PWCET = res.PWCETAt(opt.TargetExceedance)
	return res, nil
}

// plan is what a query resolves to before any artifact is touched: its
// validated options with defaults applied and the engine's settings
// echoed, its fault scenario and the fault models derived from it.
type plan struct {
	opt           Options
	scn           fault.Scenario
	model, dmodel fault.Model
}

// resolve validates a query against the engine and derives its plan.
// It computes nothing shared, so a query it rejects fails on its own.
func (e *Engine) resolve(q Query) (plan, error) {
	opt := q.options(e.workers)
	opt.Reference = e.ref       // echoed in Result.Options like the one-shot path
	opt.ExactConvolve = e.exact // ditto; buildDistributions reads it off Result.Options
	opt = opt.withDefaults()
	if err := opt.validate(); err != nil {
		return plan{}, err
	}
	if opt.DataCache != nil && opt.PreciseSRB {
		return plan{}, fmt.Errorf("core: PreciseSRB is not supported together with a data cache")
	}
	scn, err := opt.scenario()
	if err != nil {
		return plan{}, err
	}
	kind := scn.Kind()
	pfail, _ := fault.Components(scn)
	if kind != fault.KindPermanent && (opt.PreciseSRB || opt.DataCache != nil) {
		return plan{}, fmt.Errorf("core: %v scenario does not support PreciseSRB or DataCache (permanent only)", kind)
	}
	pl := plan{opt: opt, scn: scn}
	if pl.model, err = fault.NewModel(pfail, opt.Cache); err != nil {
		return plan{}, err
	}
	if opt.DataCache != nil {
		if err := opt.DataCache.Validate(); err != nil {
			return plan{}, fmt.Errorf("core: data cache: %w", err)
		}
		if pl.dmodel, err = fault.NewModel(pfail, *opt.DataCache); err != nil {
			return plan{}, err
		}
	}
	return pl, nil
}

// BatchResult is one indexed outcome of AnalyzeBatchStream: the query's
// position in the input slice, the query itself, and either a result or
// an error. Delivery order follows completion, but the content of every
// result is deterministic — a pure function of the query.
type BatchResult struct {
	Index  int
	Query  Query
	Result *Result
	Err    error
}

// AnalyzeBatchStream schedules the queries over the engine's worker
// pool and streams each outcome to deliver as soon as it completes.
// deliver is never called concurrently with itself; delivery order is
// scheduling-dependent, result content is not. Shared artifacts are
// computed once however many queries need them: concurrent queries
// that hit the same missing artifact block until its single
// computation finishes.
//
// The unit of work is the penalty distribution, not the query: queries
// that differ only in TargetExceedance form one group, which runs one
// analysis and reads every member's pWCET off the same distributions.
// Each member still gets its own Result, byte-identical to a solo
// Analyze of its query: it echoes the member's own options and owns
// its fault miss maps, while PerSet, Penalty and PenaltyPrecise — which
// nothing mutates — are shared. A query that fails validation runs
// alone, and when a group's analysis fails every member runs alone, so
// each query fails exactly as it would by itself.
func (e *Engine) AnalyzeBatchStream(queries []Query, deliver func(BatchResult)) {
	e.AnalyzeBatchStreamContext(context.Background(), queries, deliver)
}

// AnalyzeBatchStreamContext is AnalyzeBatchStream under a context. When
// the context dies, every not-yet-started query fails fast with
// ctx.Err() and in-flight queries abandon their solves at the next
// cancellation checkpoint — deliver is still called exactly once per
// query, and all worker goroutines exit before the call returns.
func (e *Engine) AnalyzeBatchStreamContext(ctx context.Context, queries []Query, deliver func(BatchResult)) {
	groups := e.batchGroups(queries)
	workers := e.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(groups) {
		workers = len(groups)
	}
	if workers <= 1 {
		for _, g := range groups {
			e.runGroup(ctx, queries, g, e.workers, deliver)
		}
		return
	}

	var mu sync.Mutex
	serialized := func(r BatchResult) {
		mu.Lock()
		deliver(r)
		mu.Unlock()
	}
	jobs := make(chan []batchMember)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := range jobs {
				// Stage parallelism 1: the group-level fan-out already
				// saturates the pool (memoized artifacts still compute
				// at the engine's Workers, deduplicated by sync.Once).
				e.runGroup(ctx, queries, g, 1, serialized)
			}
		}()
	}
	for _, g := range groups {
		jobs <- g
	}
	close(jobs)
	wg.Wait()
}

// batchMember is one query of a batch group: its index in the batch and
// its plan (zero for a query that failed validation).
type batchMember struct {
	index int
	plan  plan
}

// batchGroups partitions a batch into its units of work, in order of
// first occurrence. A group holds the queries that read one penalty
// distribution, its leader first; a query that fails validation forms
// a group of its own.
func (e *Engine) batchGroups(queries []Query) [][]batchMember {
	var groups [][]batchMember
	byKey := make(map[groupKey]int) // position in groups; only looked up, never ranged over
	for i, q := range queries {
		pl, err := e.resolve(q)
		if err != nil {
			groups = append(groups, []batchMember{{index: i}})
			continue
		}
		k := pl.groupKey(q.SoftDeadline)
		if g, ok := byKey[k]; ok {
			groups[g] = append(groups[g], batchMember{index: i, plan: pl})
			continue
		}
		byKey[k] = len(groups)
		groups = append(groups, []batchMember{{index: i, plan: pl}})
	}
	return groups
}

// runGroup analyzes one batch group and delivers one outcome per
// member. The leader runs the full analysis and every other member is
// derived from its result (Result.member). If the leader fails, every
// member runs alone instead, so each gets the outcome it would get by
// itself, errors included.
func (e *Engine) runGroup(ctx context.Context, queries []Query, g []batchMember, stageWorkers int, deliver func(BatchResult)) {
	lead := g[0].index
	res, err := e.analyze(ctx, queries[lead], stageWorkers)
	if err != nil {
		deliver(BatchResult{Index: lead, Query: queries[lead], Err: err})
		for _, m := range g[1:] {
			res, err := e.analyze(ctx, queries[m.index], stageWorkers)
			deliver(BatchResult{Index: m.index, Query: queries[m.index], Result: res, Err: err})
		}
		return
	}
	// Derive every member before the first delivery: deliver may modify
	// the leader's result.
	results := make([]*Result, len(g))
	results[0] = res
	for k, m := range g[1:] {
		results[k+1] = res.member(m.plan)
	}
	for k, m := range g {
		deliver(BatchResult{Index: m.index, Query: queries[m.index], Result: results[k]})
	}
}

// groupKey identifies the penalty distribution a valid query reads its
// pWCET from: its plan without the exceedance target. The scenario
// enters as its kind and bit-exact components and the data cache by
// value, so the key hashes no Scenario interface value (an
// implementation need not be comparable), a legacy Pfail and the
// equivalent Permanent scenario share a group, and so do distinct
// pointers to equal data caches. The soft deadline is part of the key
// because it decides how far the distribution may be degraded.
type groupKey struct {
	opt           Options // with the fields Result.member restores cleared
	kind          fault.Kind
	pfail, lambda uint64 // math.Float64bits of the scenario's components
	data          cache.Config
	hasData       bool
	soft          time.Duration
}

func (pl plan) groupKey(soft time.Duration) groupKey {
	k := groupKey{opt: pl.opt, kind: pl.scn.Kind(), soft: soft}
	k.opt.TargetExceedance, k.opt.Pfail, k.opt.Scenario, k.opt.DataCache = 0, 0, nil, nil
	pfail, lambda := fault.Components(pl.scn)
	k.pfail, k.lambda = math.Float64bits(pfail), math.Float64bits(lambda)
	if pl.opt.DataCache != nil {
		k.data, k.hasData = *pl.opt.DataCache, true
	}
	return k
}

// member derives from a group leader's result the result of another
// member with plan pl: the same analysis, read at the member's own
// target. The distributions are shared, since nothing mutates them. The
// fault miss maps are the member's own copies, as a solo query's are,
// and the options echo the member's own values of the fields groupKey
// leaves out.
func (r *Result) member(pl plan) *Result {
	m := *r
	m.Options.TargetExceedance, m.Options.Pfail = pl.opt.TargetExceedance, pl.opt.Pfail
	m.Options.Scenario, m.Options.DataCache = pl.opt.Scenario, pl.opt.DataCache
	m.Scenario = pl.scn
	m.FMM, m.DataFMM, m.FMMPrecise = cloneFMM(r.FMM), cloneFMM(r.DataFMM), cloneFMM(r.FMMPrecise)
	m.PWCET = m.PWCETAt(m.Options.TargetExceedance)
	return &m
}

// cloneFMM returns a deep copy of a fault miss map (nil stays nil).
func cloneFMM(fmm ipet.FMM) ipet.FMM {
	if fmm == nil {
		return nil
	}
	c := make(ipet.FMM, len(fmm))
	for s, row := range fmm {
		c[s] = append([]int64(nil), row...)
	}
	return c
}

// AnalyzeBatchChan is AnalyzeBatchStream delivering over a channel; the
// channel is closed after the last result. The channel is buffered to
// hold the whole batch, so a consumer that stops reading early (e.g.
// breaking out of the range on the first error) strands no goroutine —
// the remaining queries still run to completion in the background.
func (e *Engine) AnalyzeBatchChan(queries []Query) <-chan BatchResult {
	return e.AnalyzeBatchChanContext(context.Background(), queries)
}

// AnalyzeBatchChanContext is AnalyzeBatchChan under a context. The
// channel still closes after exactly len(queries) results — canceled
// queries are delivered with Err set, never silently dropped — so an
// abandoned consumer strands no goroutine and a canceled batch winds
// down promptly.
func (e *Engine) AnalyzeBatchChanContext(ctx context.Context, queries []Query) <-chan BatchResult {
	ch := make(chan BatchResult, len(queries))
	go func() {
		defer close(ch)
		e.AnalyzeBatchStreamContext(ctx, queries, func(r BatchResult) { ch <- r })
	}()
	return ch
}

// AnalyzeBatch runs all queries and returns their results in input
// order. Queries that differ only in TargetExceedance share one
// analysis (see AnalyzeBatchStream); every result is still
// byte-identical to a solo Analyze of its query. On failures it returns
// the error of the lowest-index failing query — the same one a
// sequential loop would have hit first.
func (e *Engine) AnalyzeBatch(queries []Query) ([]*Result, error) {
	return e.AnalyzeBatchContext(context.Background(), queries)
}

// AnalyzeBatchContext is AnalyzeBatch under a context: a canceled batch
// returns ctx.Err() (wrapped per the lowest failing query) after all
// workers have wound down, with every pin released.
func (e *Engine) AnalyzeBatchContext(ctx context.Context, queries []Query) ([]*Result, error) {
	results := make([]*Result, len(queries))
	firstFailed, firstErr := len(queries), error(nil)
	e.AnalyzeBatchStreamContext(ctx, queries, func(r BatchResult) {
		if r.Err != nil {
			if r.Index < firstFailed {
				firstFailed, firstErr = r.Index, r.Err
			}
			return
		}
		results[r.Index] = r.Result
	})
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}
