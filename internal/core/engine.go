package core

// This file implements the session layer of the analysis: a reusable
// Engine that memoizes the program- and cache-level artifacts of the
// pipeline so that sweeps — the paper's whole evaluation is sweeps over
// pfail points, mechanisms, exceedance targets and cache geometries —
// pay for CFG construction, the Must/May/Persistence fixpoints, the
// IPET system, the fault-free WCET and the per-set FMM ILP solves
// exactly once per distinct configuration, instead of once per query.
//
// Artifact layers and their keys. NewEngine verifies the loop metadata
// and reducibility and builds the IPET constraint system with its
// phase-1 simplex basis, once per program. Everything else lives in five
// memo tables, each a pure function of its key, all served by one
// protocol (get, memo.go) and one LRU (memory.go):
//
//   - classes, by classKey (cache geometry, reference stream): the
//     abstract-interpretation analyzer with its classification
//     fixpoints;
//   - srbs, by classKey: the SRB guaranteed-hit vector of that
//     classification, computed when an SRB column first needs it;
//   - ctxs, by ctxKey (instruction cache, optional data cache): a warm
//     System clone pivoted by exactly the fault-free WCET solve, plus
//     the WCET result itself. A context dependency-pins the
//     classifications it was built from;
//   - fmms, by (ctxKey, FMM kind, reference stream): the
//     mechanism-independent f < W FMM columns (one ILP solve per set and
//     fault count) and the three flavours of the f = W column (none,
//     SRB, precise SRB), from which any mechanism's FMM is spliced
//     without further solves;
//   - hbs, by ctxKey: the transient hit-bound vector (one ILP solve per
//     set), shared by every transient and combined scenario — the bound
//     does not depend on lambda, pfail or mechanism, so a lambda sweep
//     computes it exactly once.
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

	"repro/internal/absint"
	"repro/internal/cache"
	"repro/internal/chmc"
	"repro/internal/fault"
	"repro/internal/faultpoint"
	"repro/internal/ipet"
	"repro/internal/program"
)

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
	// implementations of the hot paths: the dense uncompacted simplex
	// (lp.NewReferenceSimplex) and the map-based abstract cache domain
	// (absint.NewReference), instead of the compacted sparse simplex
	// and the indexed compact domain. Results are bit-identical either
	// way — the differential byte-identity suite asserts it on every
	// stage (WCET, full FMM, penalty distribution, pWCET curve) — so
	// the flag exists purely to validate the optimized path, at a
	// substantial slowdown.
	Reference bool
	// ExactConvolve routes every query's penalty reduction through the
	// retained reference convolution executor (dist.ConvolveAllExact):
	// the same canonical order and merge plan as the optimized monoid
	// engine, but no subtree sharing and no in-tree coarsening — the
	// convolution analogue of Reference. Byte-identical to the default
	// whenever no coarsening binds; when the support cap binds hard
	// (deeply over-cap configurations arm in-tree coarsening), the
	// default trades a bounded, documented exceedance-area budget for a
	// large speedup, and this flag recovers the final-coarsen-only
	// semantics for differential validation.
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
// one-shot Analyze calls with the same options, in any order.
// By default memoized artifacts are retained for the lifetime of the
// Engine (unbounded memory); EngineOptions.MaxArtifactBytes bounds the
// estimated resident total with LRU eviction, trading recomputation for
// memory without ever changing a result. MemStats reports the resident
// estimate and the hit/miss/eviction counters.
type Engine struct {
	p        *program.Program
	opt      EngineOptions
	pristine *ipet.System

	// poisoned is set when a query panicked inside the engine (see
	// PanicError): internal memo state may be partially constructed, so
	// every later call fails fast with ErrPoisoned instead of touching
	// it. panicVal retains the first panic for the error message.
	poisoned atomic.Bool
	panicVal atomic.Pointer[PanicError]

	// The memo tables (see the file comment), guarded by mu.
	mu      sync.Mutex
	classes memo[classKey, classification]
	srbs    memo[classKey, []bool]
	ctxs    memo[ctxKey, wcetCtx]
	fmms    memo[fmmKey, ipet.FMM]
	hbs     memo[ctxKey, ipet.HitBounds]

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

// classification is the artifact of one classKey: the analyzer with
// its fixpoints and the fault-free classification of every reference.
type classification struct {
	a    *absint.Analyzer
	base []chmc.Class
}

// ctxKey identifies one WCET context: the instruction cache plus the
// optional data cache (the combined objective pivots the simplex
// differently, so contexts with and without a data cache are distinct).
type ctxKey struct {
	icfg    cache.Config
	dcfg    cache.Config
	hasData bool
}

// wcetCtx is the artifact of one ctxKey: the warm system and the WCET
// result, with the classification cells it dependency-pins for as long
// as it is resident.
type wcetCtx struct {
	key    ctxKey
	ic, dc *memoCell[classification]
	sys    *ipet.System
	wcet   *ipet.WCETResult
}

// class returns the context's classification of one reference stream.
func (w wcetCtx) class(data bool) classification {
	if data {
		return w.dc.val
	}
	return w.ic.val
}

// unpinClasses releases the context's dependency pins on its
// classifications: it is the ctxs table's evicted hook, and a context
// whose WCET solve fails calls it too. Engine.mu must be held.
func (w wcetCtx) unpinClasses() {
	w.ic.node.unpin(pinDep)
	if w.dc != nil {
		w.dc.node.unpin(pinDep)
	}
}

// fmmKind selects one FMM artifact of a context.
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

// fmmKey identifies one FMM artifact: a kind, computed for one
// reference stream of one context.
type fmmKey struct {
	ctx  ctxKey
	kind fmmKind
	data bool
}

// NewEngine builds an analysis session for the program: it verifies the
// loop metadata and reducibility once, constructs the IPET constraint
// system and runs simplex phase 1. Everything else is computed lazily
// and memoized as queries need it.
func NewEngine(p *program.Program, opt EngineOptions) (*Engine, error) {
	if faultpoint.Enabled {
		if err := faultpoint.Hit(faultpoint.SiteEngineBuild); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	sys, err := verifiedSystem(p, opt)
	if err != nil {
		return nil, err
	}
	return &Engine{
		p:        p,
		opt:      opt,
		pristine: sys,
		ctxs:     memo[ctxKey, wcetCtx]{evicted: wcetCtx.unpinClasses},
	}, nil
}

func (e *Engine) emit(ev ArtifactEvent) {
	if e.opt.Hook != nil {
		e.opt.Hook(ev)
	}
}

// class returns the classification cell of one cache configuration and
// reference stream, computing the fixpoints on first use. It is only
// called while a context is being built, and the cell comes back
// dependency-pinned for that context, which holds the pin until it is
// evicted or its WCET solve fails. A resident context therefore never
// references an evicted, unaccounted classification. The computation
// cannot fail, so neither can class.
func (e *Engine) class(qctx context.Context, cfg cache.Config, data bool) *memoCell[classification] {
	ev := ArtifactEvent{Artifact: ArtifactClassification, Cache: cfg, Data: data}
	c, _ := get(e, qctx, &e.classes, classKey{cfg: cfg, data: data}, pinDep, ev, func() (classification, int64, error) {
		var a *absint.Analyzer
		switch {
		case data && e.opt.Reference:
			a = absint.NewDataReference(e.p, cfg)
		case data:
			a = absint.NewData(e.p, cfg)
		case e.opt.Reference:
			a = absint.NewReference(e.p, cfg)
		default:
			a = absint.New(e.p, cfg)
		}
		base := a.ClassifyAll()
		return classification{a: a, base: base}, a.MemBytes() + int64(cap(base)), nil
	})
	return c
}

// srb returns the SRB guaranteed-hit vector of a classification the
// caller holds (through its context's dependency pin). Like class, it
// cannot fail.
func (e *Engine) srb(qctx context.Context, cl classification, data bool) []bool {
	cfg := cl.a.Config()
	ev := ArtifactEvent{Artifact: ArtifactSRBClassification, Cache: cfg, Data: data}
	c, _ := get(e, qctx, &e.srbs, classKey{cfg: cfg, data: data}, pinNone, ev, func() ([]bool, int64, error) {
		hit := cl.a.ClassifySRB()
		return hit, int64(cap(hit)), nil
	})
	return c.val
}

// context returns the WCET context of the query's cache pair: a private
// System warmed by exactly the fault-free WCET solve a one-shot Analyze
// would run, and the WCET result. The cell comes back pinned for the
// calling query, which must release it (analyzeOnce defers this).
func (e *Engine) context(qctx context.Context, icfg cache.Config, dcfg *cache.Config) (*memoCell[wcetCtx], error) {
	key := ctxKey{icfg: icfg}
	if dcfg != nil {
		key.dcfg, key.hasData = *dcfg, true
	}
	ev := ArtifactEvent{Artifact: ArtifactWCET, Cache: icfg, Data: key.hasData}
	return get(e, qctx, &e.ctxs, key, pinQuery, ev, func() (wcetCtx, int64, error) {
		w := wcetCtx{key: key, ic: e.class(qctx, icfg, false)}
		var da *absint.Analyzer
		var dbase []chmc.Class
		if key.hasData {
			w.dc = e.class(qctx, key.dcfg, true)
			da, dbase = w.dc.val.a, w.dc.val.base
		}
		// The clone starts from the pristine phase-1 basis, exactly like
		// a fresh NewSystem; the WCET solve below pivots only this
		// clone, so it is the context's sole warm-up — afterwards the
		// system is only ever read (ComputeFMM workers clone from it).
		w.sys = e.pristine.Clone()
		if qctx.Done() != nil {
			// Abandon the WCET solve between pivot batches when the
			// creating query's context dies; cleared below so the warm
			// system never retains a dead query's probe.
			w.sys.SetCancel(qctx.Err)
		}
		wcet, err := ipet.WCETCombined(w.sys, w.ic.val.a, w.ic.val.base, da, dbase)
		w.sys.SetCancel(nil)
		if err != nil {
			// A failed context is never charged or evicted, so it must
			// not keep its classifications pinned.
			e.mu.Lock()
			w.unpinClasses()
			e.mu.Unlock()
			return wcetCtx{}, 0, err
		}
		w.wcet = wcet
		return w, w.sys.WarmMemBytes() + int64(cap(wcet.BlockCounts))*8, nil
	})
}

// fmmArtifact returns one FMM artifact of the context w, computing it
// on first use. The caller holds its query pin on the context, which
// keeps the context's system and classifications resident while the
// artifact is computed; the artifact itself is evicted by the LRU alone.
func (e *Engine) fmmArtifact(qctx context.Context, w wcetCtx, kind fmmKind, data bool) (ipet.FMM, error) {
	cl := w.class(data)
	opt := ipet.FMMOptions{Workers: e.opt.Workers, OnlyWholeSetColumn: kind != fmmCore}
	ev := ArtifactEvent{Artifact: ArtifactFMMColumn, Cache: cl.a.Config(), Data: data}
	switch kind {
	case fmmCore:
		// MechanismRW never reaches the f = W column, so its FMM is
		// exactly the mechanism-independent f < W columns.
		opt.Mechanism = cache.MechanismRW
		ev.Artifact, ev.Mechanism = ArtifactFMMCore, cache.MechanismRW
	case fmmNoneColumn:
		opt.Mechanism, ev.Mechanism = cache.MechanismNone, cache.MechanismNone
	case fmmSRBColumn:
		opt.Mechanism, ev.Mechanism = cache.MechanismSRB, cache.MechanismSRB
	case fmmPreciseColumn:
		// The precise column classifies each set at associativity 1;
		// the SRB guaranteed-hit vector is not consulted.
		opt.Mechanism, opt.PreciseSRB = cache.MechanismSRB, true
		ev.Mechanism, ev.Precise = cache.MechanismSRB, true
	}
	return valueOf(get(e, qctx, &e.fmms, fmmKey{ctx: w.key, kind: kind, data: data}, pinNone, ev, func() (ipet.FMM, int64, error) {
		if kind == fmmSRBColumn {
			opt.SRBHit = e.srb(qctx, cl, data)
		}
		if qctx.Done() != nil {
			opt.Ctx = qctx // per-set and pivot-batch cancellation checks
		}
		fmm, err := ipet.ComputeFMM(w.sys, cl.a, cl.base, opt)
		return fmm, fmm.MemBytes(), err
	}))
}

// hitBounds returns the transient hit-bound vector of the context w,
// solving the per-set ILPs on first use. Like fmmArtifact, the caller
// holds its query pin on the context. The vector is never mutated after
// construction, so returning the memoized slice is safe even across a
// later eviction.
func (e *Engine) hitBounds(qctx context.Context, w wcetCtx) (ipet.HitBounds, error) {
	cl := w.class(false)
	ev := ArtifactEvent{Artifact: ArtifactTransientBound, Cache: cl.a.Config()}
	return valueOf(get(e, qctx, &e.hbs, w.key, pinNone, ev, func() (ipet.HitBounds, int64, error) {
		opt := ipet.HitBoundOptions{Workers: e.opt.Workers}
		if qctx.Done() != nil {
			opt.Ctx = qctx
		}
		hb, err := ipet.ComputeHitBounds(w.sys, cl.a, cl.base, opt)
		return hb, hb.MemBytes(), err
	}))
}

// fmmFor splices the requested mechanism's fault miss map from the
// memoized artifacts: the shared f < W columns plus the mechanism's
// f = W column. The returned FMM is a fresh copy the caller owns.
func (e *Engine) fmmFor(qctx context.Context, w wcetCtx, data bool, mech cache.Mechanism, precise bool) (ipet.FMM, error) {
	core, err := e.fmmArtifact(qctx, w, fmmCore, data)
	if err != nil {
		return nil, err
	}
	var column ipet.FMM
	switch {
	case precise:
		column, err = e.fmmArtifact(qctx, w, fmmPreciseColumn, data)
	case mech == cache.MechanismNone:
		column, err = e.fmmArtifact(qctx, w, fmmNoneColumn, data)
	case mech == cache.MechanismSRB:
		column, err = e.fmmArtifact(qctx, w, fmmSRBColumn, data)
	}
	if err != nil {
		return nil, err
	}
	fmm := cloneFMM(core)
	if column != nil {
		ways := w.class(data).a.Config().Ways
		for s := range fmm {
			fmm[s][ways] = column[s][ways]
		}
	}
	return fmm, nil
}

// Analyze runs one query against the session, reusing every memoized
// artifact and computing only the per-query probability weighting,
// convolution and quantile. The result is byte-identical to the oracle's
// Analyze(p, options, q), as long as no soft deadline degrades it. It
// is exactly AnalyzeContext under context.Background().
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
	return e.analyze(ctx, q, e.opt.Workers)
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
	pl, err := resolve(q)
	if err != nil {
		return nil, err
	}
	q, kind := pl.q, pl.scn.Kind()

	cc, err := e.context(qctx, q.Cache, q.DataCache)
	if err != nil {
		return nil, err
	}
	// The context (and through it the classifications) stays pinned —
	// not evictable — for the rest of the query; the budget is enforced
	// against the unpinned remainder now and fully on release. The defer
	// also runs when the analysis panics (the recover above fires after
	// it), so even a poisoning query leaves no pinned bytes behind.
	defer e.release(&cc.node, pinQuery)
	ce := cc.val
	var fmm ipet.FMM
	if kind != fault.KindTransient {
		fmm, err = e.fmmFor(qctx, ce, false, q.Mechanism, false)
		if err != nil {
			return nil, err
		}
	}

	res = &Result{
		Program:       e.p.Name,
		Query:         q,
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
	if q.DataCache != nil {
		dfmm, err := e.fmmFor(qctx, ce, true, q.Mechanism, false)
		if err != nil {
			return nil, err
		}
		res.DataModel = pl.dmodel
		res.DataFMM = dfmm
	}
	if err := res.buildDistributions(stageWorkers, e.opt.ExactConvolve, probe); err != nil {
		return nil, err
	}
	if q.PreciseSRB && q.Mechanism == cache.MechanismSRB {
		pfmm, err := e.fmmFor(qctx, ce, false, q.Mechanism, true)
		if err != nil {
			return nil, err
		}
		if err := res.attachPreciseSRB(pfmm, stageWorkers, e.opt.ExactConvolve, probe); err != nil {
			return nil, err
		}
	}
	res.PWCET = res.PWCETAt(q.TargetExceedance)
	return res, nil
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
// Analyze of its query: it echoes the member's own query and owns
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
	workers := e.opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(groups) {
		workers = len(groups)
	}
	if workers <= 1 {
		for _, g := range groups {
			e.runGroup(ctx, queries, g, e.opt.Workers, deliver)
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
		pl, err := resolve(q)
		if err != nil {
			groups = append(groups, []batchMember{{index: i}})
			continue
		}
		k := pl.groupKey()
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
// pWCET from: its resolved query without the exceedance target. The
// scenario enters as its kind and bit-exact components and the data
// cache by value, so the key hashes no Scenario interface value (an
// implementation need not be comparable), a legacy Pfail and the
// equivalent Permanent scenario share a group, and so do distinct
// pointers to equal data caches. The soft deadline stays in the key
// because it decides how far the distribution may be degraded.
type groupKey struct {
	q             Query // with the fields Result.member restores cleared
	kind          fault.Kind
	pfail, lambda uint64 // math.Float64bits of the scenario's components
	data          cache.Config
	hasData       bool
}

func (pl plan) groupKey() groupKey {
	k := groupKey{q: pl.q, kind: pl.scn.Kind()}
	k.q.TargetExceedance, k.q.Pfail, k.q.Scenario, k.q.DataCache = 0, 0, nil, nil
	pfail, lambda := fault.Components(pl.scn)
	k.pfail, k.lambda = math.Float64bits(pfail), math.Float64bits(lambda)
	if pl.q.DataCache != nil {
		k.data, k.hasData = *pl.q.DataCache, true
	}
	return k
}

// member derives from a group leader's result the result of another
// member with plan pl: the same analysis, read at the member's own
// target. The distributions are shared, since nothing mutates them. The
// fault miss maps are the member's own copies, as a solo query's are,
// and the query echo carries the member's own values of the fields
// groupKey leaves out.
func (r *Result) member(pl plan) *Result {
	m := *r
	m.Query.TargetExceedance, m.Query.Pfail = pl.q.TargetExceedance, pl.q.Pfail
	m.Query.Scenario, m.Query.DataCache = pl.q.Scenario, pl.q.DataCache
	m.Scenario = pl.scn
	m.FMM, m.DataFMM, m.FMMPrecise = cloneFMM(r.FMM), cloneFMM(r.DataFMM), cloneFMM(r.FMMPrecise)
	m.PWCET = m.PWCETAt(m.Query.TargetExceedance)
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

// AnalyzeBatchChanContext is AnalyzeBatchStreamContext delivering over
// a channel, which is closed after the last result. The channel is
// buffered to hold the whole batch, so a consumer that stops reading
// early (e.g. breaking out of the range on the first error) strands no
// goroutine — the remaining queries still run to completion in the
// background. The channel closes after exactly len(queries) results —
// canceled queries are delivered with Err set, never silently dropped —
// so a canceled batch winds down promptly.
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
