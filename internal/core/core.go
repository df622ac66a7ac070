// Package core implements the paper's contribution: static probabilistic
// WCET estimation for set-associative LRU instruction caches with
// permanently faulty blocks, under three architectures — no protection
// (the baseline of Hardy & Puaut, RTS 2015), the Reliable Way (RW), and
// the Shared Reliable Buffer (SRB) (Sections II.C and III of the paper).
//
// The pipeline per program and configuration:
//
//  1. classify every reference with the Must/May/Persistence analyses
//     (internal/absint) and compute the fault-free WCET by IPET
//     (internal/ipet);
//  2. compute the Fault Miss Map: per set s and per number of faulty
//     blocks f, an ILP upper-bounds the fault-induced misses, with the
//     mechanism-specific handling of the f = W column;
//  3. turn each set's FMM row into a discrete penalty distribution
//     weighted by the faulty-way probabilities (equations 2 and 3) and
//     convolve the per-set distributions (sets are independent);
//  4. read the pWCET at the target exceedance probability off the
//     resulting distribution, on top of the fault-free WCET.
package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/absint"
	"repro/internal/cache"
	"repro/internal/cfg"
	"repro/internal/chmc"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/ipet"
	"repro/internal/program"
)

// DefaultTargetExceedance is the paper's target probability: 10^-15 per
// task activation (commercial aerospace, Section IV.A).
const DefaultTargetExceedance = 1e-15

// DefaultMaxSupport caps the penalty distribution support during
// convolution; coarsening is conservative (CCDF upper bound).
const DefaultMaxSupport = 4096

// Query is one analysis configuration: the cache geometry, the fault
// scenario, the reliability mechanism and the exceedance target, plus
// the support cap of the penalty convolution. The zero value of each
// field selects its default (paper cache, 1e-15 target, 4096 support
// cap). Parallelism, instrumentation and the reference escape hatches
// belong to the session (EngineOptions).
type Query struct {
	// Cache is the cache geometry and timing. Zero value = PaperConfig.
	Cache cache.Config
	// Pfail is the per-bit permanent failure probability (paper: 1e-4).
	// It is the legacy spelling of Scenario = fault.Permanent{Pfail}:
	// leaving Scenario nil selects the paper's permanent model with
	// this probability, byte-identical to the pre-scenario pipeline.
	Pfail float64
	// Scenario selects the fault environment: fault.Permanent (the
	// paper's boot-time model), fault.Transient (per-access SEUs at
	// rate lambda), or fault.Combined (both, independently composed).
	// nil defaults to fault.Permanent{Pfail: Pfail}; setting both
	// Scenario and a non-zero Pfail is rejected. Transient and
	// Combined scenarios are not combinable with PreciseSRB or
	// DataCache. Scenario parameters only shape the per-query
	// probability weighting: the memoized artifacts they read
	// (classification, WCET, FMM columns, transient hit bounds) are
	// scenario-independent, so a lambda or pfail sweep computes each
	// artifact exactly once.
	Scenario fault.Scenario
	// Mechanism selects the reliability hardware (None, RW, SRB). It
	// shapes only the permanent fault component; a pure Transient
	// scenario yields the same result for every mechanism.
	Mechanism cache.Mechanism
	// TargetExceedance is the probability at which the pWCET is read
	// (default 1e-15). It is the only field that does not shape the
	// penalty distribution: in a batch, queries that differ only in
	// their targets read their pWCETs off one shared distribution.
	TargetExceedance float64
	// MaxSupport caps the convolution support size (default 4096).
	MaxSupport int
	// Coarsen selects the strategy that enforces MaxSupport on over-cap
	// convolution partials. The zero value is dist.CoarsenLeastError,
	// the tail-faithful default; dist.CoarsenKeepHeaviest reproduces
	// the legacy keep-heaviest reduction. Both are sound upper bounds
	// and byte-identical (the cap is a no-op) whenever the support
	// never exceeds MaxSupport; they only diverge when the cap binds.
	// The strategy only shapes the per-query distribution stage, which
	// is never memoized, so two queries differing only in Coarsen share
	// every artifact and still never alias each other's distributions
	// (asserted by TestEngineCoarsenStrategyNoAliasing).
	Coarsen dist.CoarsenStrategy
	// PreciseSRB enables the refined SRB analysis of precise.go (the
	// paper's future-work item): per-set private SRB classification
	// combined with the conservative one through a sound probability
	// mixture. Only meaningful with MechanismSRB.
	PreciseSRB bool
	// DataCache, when non-nil, additionally analyzes the program's data
	// accesses (Body.Load/Store) against this data-cache configuration —
	// the paper's "transpose the hardware and corresponding analyses to
	// data caches" future-work direction. The same pfail and mechanism
	// apply to both caches; their fault populations are independent, so
	// the two penalty distributions convolve. Not combinable with
	// PreciseSRB.
	DataCache *cache.Config
	// SoftDeadline, when positive, arms the Engine's degraded mode: if
	// one attempt of the query does not finish within this duration,
	// the engine retries with a geometrically tighter MaxSupport cap
	// (quartering down to a floor of 16 support points) and marks the
	// result Degraded instead of failing. The final floor attempt runs
	// without the soft deadline, so a query only fails outright when
	// the caller's own context expires. Degradation is sound:
	// coarsening is tail-preserving, so every degraded pWCET
	// upper-bounds the exact one (see Result.Degraded). Zero disables
	// the mechanism — queries run to completion at full precision, as
	// the one-shot Analyze always does.
	//
	// SoftDeadline is not part of any memo key: artifacts computed by a
	// degraded attempt are the same pure functions of their keys as
	// always, and the per-query distribution stage is never memoized.
	SoftDeadline time.Duration
}

// plan is what a query resolves to before any artifact is touched: the
// query with its defaults applied, its fault scenario and the fault
// models derived from it.
type plan struct {
	q             Query
	scn           fault.Scenario
	model, dmodel fault.Model
}

// resolve applies a query's defaults, validates it and derives its
// plan. The oracle and the Engine both validate through it, so a query
// fails with the same error whichever runs it. It computes nothing
// shared, so a query it rejects fails on its own.
func resolve(q Query) (plan, error) {
	if q.Cache == (cache.Config{}) {
		q.Cache = cache.PaperConfig()
	}
	if q.TargetExceedance == 0 {
		q.TargetExceedance = DefaultTargetExceedance
	}
	if q.MaxSupport == 0 {
		q.MaxSupport = DefaultMaxSupport
	}
	if err := q.Cache.Validate(); err != nil {
		return plan{}, err
	}
	if !(q.TargetExceedance > 0 && q.TargetExceedance < 1) { // NaN fails both comparisons
		return plan{}, fmt.Errorf("core: target exceedance %g outside (0,1)", q.TargetExceedance)
	}
	// MaxSupport feeds dist.CoarsenToWith, where values below 2 would
	// either disable the cap (<= 0, silently unbounded memory) or
	// collapse every distribution to its maximum (1). Only 0 (replaced
	// by the default above) is a valid "unset".
	//
	// Note the per-query support cap is distinct from the session-level
	// artifact memory: an Engine retains every memoized artifact
	// forever unless EngineOptions.MaxArtifactBytes sets a byte budget
	// (<= 0 keeps the unbounded behavior — see its documentation).
	// Long-lived processes should set a budget.
	if q.MaxSupport < 2 {
		return plan{}, fmt.Errorf("core: MaxSupport %d: need at least 2 support points (or 0 for the default %d)",
			q.MaxSupport, DefaultMaxSupport)
	}
	if err := q.Coarsen.Validate(); err != nil {
		return plan{}, fmt.Errorf("core: %w", err)
	}
	if q.DataCache != nil && q.PreciseSRB {
		return plan{}, fmt.Errorf("core: PreciseSRB is not supported together with a data cache")
	}
	// An explicit Scenario wins; a nil Scenario selects the paper's
	// permanent model at the legacy Pfail field. Setting both is
	// rejected so a sweep can never silently mix the two spellings.
	pl := plan{q: q, scn: q.Scenario}
	if pl.scn == nil {
		pl.scn = fault.Permanent{Pfail: q.Pfail}
	} else if q.Pfail != 0 {
		return plan{}, fmt.Errorf("core: both Pfail %g and Scenario %v set; use exactly one", q.Pfail, q.Scenario)
	} else if err := q.Scenario.Validate(); err != nil {
		return plan{}, fmt.Errorf("core: %w", err)
	}
	kind := pl.scn.Kind()
	if kind != fault.KindPermanent && (q.PreciseSRB || q.DataCache != nil) {
		return plan{}, fmt.Errorf("core: %v scenario does not support PreciseSRB or DataCache (permanent only)", kind)
	}
	pfail, _ := fault.Components(pl.scn)
	var err error
	if pl.model, err = fault.NewModel(pfail, q.Cache); err != nil {
		return plan{}, err
	}
	if q.DataCache != nil {
		if err := q.DataCache.Validate(); err != nil {
			return plan{}, fmt.Errorf("core: data cache: %w", err)
		}
		if pl.dmodel, err = fault.NewModel(pfail, *q.DataCache); err != nil {
			return plan{}, err
		}
	}
	return pl, nil
}

// Result is the outcome of one pWCET analysis.
type Result struct {
	// Program is the analyzed program's name.
	Program string
	// Query echoes the analyzed query with its defaults resolved. A
	// Degraded result echoes the tightened MaxSupport it was built
	// under.
	Query Query
	// Scenario is the resolved fault scenario — never nil: a nil
	// Query.Scenario resolves to fault.Permanent{Pfail}.
	Scenario fault.Scenario
	// Model is the derived permanent fault model (pbf from equation 1).
	// For a pure Transient scenario it is the zero-pfail model.
	Model fault.Model
	// Transient is the derived SEU model (lambda, window bound,
	// per-access extra-miss probability). Zero unless the scenario has
	// a transient component.
	Transient fault.TransientModel
	// HitBounds caps, per cache set, the hit-classified reference
	// executions a transient upset can turn into extra misses. nil
	// unless the scenario has a transient component.
	HitBounds ipet.HitBounds
	// FaultFreeWCET is the deterministic WCET with zero faults, in
	// cycles.
	FaultFreeWCET int64
	// FMM is the fault miss map (misses, not cycles): FMM[s][f]. nil
	// for a pure Transient scenario, which has no permanent component.
	FMM ipet.FMM
	// PerSet holds each set's penalty distribution in cycles.
	PerSet []*dist.Dist
	// Penalty is the convolution of the per-set distributions: the
	// distribution of the total fault-induced penalty in cycles.
	Penalty *dist.Dist
	// PWCET is the probabilistic WCET at TargetExceedance:
	// FaultFreeWCET + penalty quantile (PWCETAt).
	PWCET int64
	// Degraded marks a result produced by the engine's degraded mode
	// (Query.SoftDeadline): the soft deadline expired and the analysis
	// was retried under a tighter MaxSupport cap. Degraded results are
	// still sound — coarsening is tail-preserving, so the degraded
	// pWCET upper-bounds the exact one (the dominance tests pin this) —
	// they are just less tight. Always false for one-shot Analyze and
	// for queries without a soft deadline.
	Degraded bool
	// HitRefs, FMRefs, MissRefs count reference classifications.
	HitRefs, FMRefs, MissRefs int

	// FMMPrecise and PenaltyPrecise hold the refined SRB analysis
	// (Query.PreciseSRB): a fault miss map and penalty distribution
	// that are sound for fault maps with at most one entirely faulty
	// set. ProbMultiFullSets is P(two or more sets entirely faulty),
	// the additive term of the mixture bound. All nil/zero unless
	// PreciseSRB was requested.
	FMMPrecise        ipet.FMM
	PenaltyPrecise    *dist.Dist
	ProbMultiFullSets float64

	// DataModel and DataFMM hold the data-cache analysis when
	// Query.DataCache was set; the data-cache penalty is already
	// convolved into Penalty.
	DataModel fault.Model
	DataFMM   ipet.FMM
}

// Analyze is the one-shot oracle: the full pWCET analysis of one
// program under query q, computed from scratch with no memoization. Its
// result equals NewEngine(p, eo) followed by Analyze(q), which the
// differential suites assert, so it is the reference the Engine's memo
// and splice layer is tested against. It shares with the Engine only
// the query validation (resolve) and the distribution stage. It has no
// degraded mode and no memo tables, so it runs every query to
// completion and ignores eo.Hook and eo.MaxArtifactBytes.
func Analyze(p *program.Program, eo EngineOptions, q Query) (*Result, error) {
	sys, err := verifiedSystem(p, eo)
	if err != nil {
		return nil, err
	}
	pl, err := resolve(q)
	if err != nil {
		return nil, err
	}
	q, kind := pl.q, pl.scn.Kind()
	newAnalyzer, newDataAnalyzer := absint.New, absint.NewData
	if eo.Reference {
		newAnalyzer, newDataAnalyzer = absint.NewReference, absint.NewDataReference
	}
	a := newAnalyzer(p, q.Cache)
	base := a.ClassifyAll()
	var da *absint.Analyzer
	var dbase []chmc.Class
	if q.DataCache != nil {
		da = newDataAnalyzer(p, *q.DataCache)
		dbase = da.ClassifyAll()
	}
	wres, err := ipet.WCETCombined(sys, a, base, da, dbase)
	if err != nil {
		return nil, err
	}

	// fmmOf computes one stream's fault miss map for the query's
	// mechanism, or its precise-SRB map.
	fmmOf := func(a *absint.Analyzer, base []chmc.Class, precise bool) (ipet.FMM, error) {
		fopt := ipet.FMMOptions{Mechanism: q.Mechanism, PreciseSRB: precise, Workers: eo.Workers}
		if q.Mechanism == cache.MechanismSRB && !precise {
			fopt.SRBHit = a.ClassifySRB()
		}
		return ipet.ComputeFMM(sys, a, base, fopt)
	}
	res := &Result{
		Program:       p.Name,
		Query:         q,
		Scenario:      pl.scn,
		Model:         pl.model,
		FaultFreeWCET: wres.WCET,
		HitRefs:       wres.HitRefs,
		FMRefs:        wres.FMRefs,
		MissRefs:      wres.MissRefs,
	}
	// A pure Transient scenario has no permanent component: the fault
	// miss map (per-set misses as a function of permanently faulty
	// ways) is meaningless for it and is skipped entirely.
	if kind != fault.KindTransient {
		if res.FMM, err = fmmOf(a, base, false); err != nil {
			return nil, err
		}
	}
	if kind != fault.KindPermanent {
		res.HitBounds, err = ipet.ComputeHitBounds(sys, a, base, ipet.HitBoundOptions{Workers: eo.Workers})
		if err != nil {
			return nil, err
		}
	}
	if da != nil {
		res.DataModel = pl.dmodel
		if res.DataFMM, err = fmmOf(da, dbase, false); err != nil {
			return nil, err
		}
	}
	if err := res.buildDistributions(eo.Workers, eo.ExactConvolve, nil); err != nil {
		return nil, err
	}
	if q.PreciseSRB && q.Mechanism == cache.MechanismSRB {
		pfmm, err := fmmOf(a, base, true)
		if err != nil {
			return nil, err
		}
		if err := res.attachPreciseSRB(pfmm, eo.Workers, eo.ExactConvolve, nil); err != nil {
			return nil, err
		}
	}
	res.PWCET = res.PWCETAt(q.TargetExceedance)
	return res, nil
}

// verifiedSystem checks the session options and the program and builds
// the program's IPET system, for the Engine and the oracle alike. It is
// the soundness gate of both: IPET loop-bound constraints are only
// valid for verified natural loops on a reducible CFG
// (internal/cfg).
func verifiedSystem(p *program.Program, eo EngineOptions) (*ipet.System, error) {
	if eo.Workers < 0 {
		return nil, fmt.Errorf("core: Workers %d is negative (0 means GOMAXPROCS)", eo.Workers)
	}
	if err := cfg.VerifyLoopMetadata(p); err != nil {
		return nil, fmt.Errorf("core: %s: %w", p.Name, err)
	}
	if !cfg.Reducible(p) {
		return nil, fmt.Errorf("core: %s: irreducible control flow", p.Name)
	}
	if eo.Reference {
		return ipet.NewReferenceSystem(p)
	}
	return ipet.NewSystem(p)
}

// buildDistributions derives the per-set penalty distributions from the
// FMM and the faulty-way probabilities, convolves them (including the
// data cache's, whose fault population is independent) and folds in the
// transient extra-miss penalty when the scenario has one. It does not
// depend on the target: the caller reads the pWCET off afterwards with
// PWCETAt. workers bounds the convolution tree's parallelism (an Engine
// batch that already fans out over its groups of queries passes 1); it
// never changes the result. exact routes every reduction through the
// reference executor (EngineOptions.ExactConvolve). probe, when
// non-nil, is the cancellation hook consulted at every merge node of
// the reduction trees; on its error the stage unwinds with that error,
// and partial distributions are discarded, never published on the
// Result.
//
// The permanent stage runs exactly the historical code whenever an FMM
// is present; the transient stage is strictly appended after it, so a
// permanent-only scenario is byte-identical to the pre-scenario
// pipeline and Combined(pfail, lambda) convolves the two independent
// penalty distributions.
func (r *Result) buildDistributions(workers int, exact bool, probe func() error) error {
	q := r.Query
	penalty := dist.Degenerate(0)
	if r.FMM != nil {
		var err error
		r.PerSet, penalty, err = convolveFMM(r.FMM, q.Cache, r.Model, q.Mechanism,
			penalty, q.MaxSupport, q.Coarsen, workers, exact, probe)
		if err != nil {
			return err
		}
		if r.DataFMM != nil {
			_, penalty, err = convolveFMM(r.DataFMM, *q.DataCache, r.DataModel,
				q.Mechanism, penalty, q.MaxSupport, q.Coarsen, workers, exact, probe)
			if err != nil {
				return err
			}
		}
	}
	if r.HitBounds != nil {
		// The window bound on any access's inter-access distance is a
		// bound on the whole run's duration: fault-free WCET, plus the
		// worst permanent penalty already materialized in the
		// accumulator, plus one miss penalty per vulnerable access (the
		// transient misses themselves lengthen the run).
		_, lambda := fault.Components(r.Scenario)
		window, ok := addCycles(r.FaultFreeWCET, penalty.Max())
		transient, ok2 := mulCycles(q.Cache.MissPenalty(), r.HitBounds.Total())
		window, ok3 := addCycles(window, transient)
		if !ok || !ok2 || !ok3 {
			return fmt.Errorf("core: transient window (fault-free WCET %d + penalty %d + %d accesses x %d cycles) overflows int64",
				r.FaultFreeWCET, penalty.Max(), r.HitBounds.Total(), q.Cache.MissPenalty())
		}
		tm, err := fault.NewTransientModel(lambda, window)
		if err != nil {
			return err
		}
		r.Transient = tm
		penalty, err = convolveTransient(penalty, r.HitBounds, q.Cache, tm,
			q.MaxSupport, q.Coarsen, workers, exact, probe)
		if err != nil {
			return err
		}
	}
	if _, ok := addCycles(r.FaultFreeWCET, penalty.Max()); !ok {
		return fmt.Errorf("core: pWCET (fault-free WCET %d + penalty %d) overflows int64",
			r.FaultFreeWCET, penalty.Max())
	}
	r.Penalty = penalty
	return nil
}

// convolveFMM convolves one cache's per-set penalty distributions into
// an accumulator distribution: convolveSets reduces them (coarsening
// only the partial products that exceed maxSupport, with the configured
// strategy) and the result is folded into the accumulator.
func convolveFMM(fmm ipet.FMM, cfg cache.Config, model fault.Model, mech cache.Mechanism,
	acc *dist.Dist, maxSupport int, strategy dist.CoarsenStrategy, workers int, exact bool,
	probe func() error) ([]*dist.Dist, *dist.Dist, error) {
	var pwf []float64
	if mech == cache.MechanismRW {
		pwf = fault.PWFReliableWay(cfg.Ways, model.PBF) // equation 3
	} else {
		pwf = fault.PWF(cfg.Ways, model.PBF) // equation 2
	}
	perSet, err := perSetPenalties(fmm, pwf, cfg)
	if err != nil {
		return nil, nil, err
	}
	total, err := convolveSets(perSet, maxSupport, strategy, workers, exact, probe)
	if err != nil {
		return nil, nil, err
	}
	acc, err = foldPenalty(acc, total, maxSupport, strategy)
	if err != nil {
		return nil, nil, err
	}
	return perSet, acc, nil
}

// perSetPenalties builds one penalty distribution per cache set: with
// probability pwf[f] the set has f faulty ways and suffers fmm[s][f]
// extra misses, each costing the miss penalty.
func perSetPenalties(fmm ipet.FMM, pwf []float64, cfg cache.Config) ([]*dist.Dist, error) {
	perSet := make([]*dist.Dist, cfg.Sets)
	for s := range perSet {
		pts := make([]dist.Point, 0, len(pwf))
		for f, prob := range pwf {
			v, ok := mulCycles(fmm[s][f], cfg.MissPenalty())
			if !ok {
				return nil, fmt.Errorf("core: set %d penalty (%d misses x %d cycles) overflows int64",
					s, fmm[s][f], cfg.MissPenalty())
			}
			pts = append(pts, dist.Point{Value: v, Prob: prob})
		}
		d, err := dist.New(pts)
		if err != nil {
			return nil, fmt.Errorf("core: set %d penalty distribution: %w", s, err)
		}
		perSet[s] = d
	}
	return perSet, nil
}

// convolveSets reduces per-set distributions to the distribution of
// their sum over workers, or serially by the reference executor when
// exact (EngineOptions.ExactConvolve). probe, when non-nil, is the
// cancellation hook checked at every merge node.
func convolveSets(perSet []*dist.Dist, maxSupport int, strategy dist.CoarsenStrategy, workers int, exact bool,
	probe func() error) (*dist.Dist, error) {
	// Every partial sum of the reduction is bounded by the sum of the
	// per-set maxima (penalties are non-negative), so one check up front
	// keeps Convolve's overflow panic unreachable.
	var sum int64
	for s, d := range perSet {
		var ok bool
		if sum, ok = addCycles(sum, d.Max()); !ok {
			return nil, fmt.Errorf("core: penalty reduction overflows int64 at set %d (maximum penalty %d)", s, d.Max())
		}
	}
	if exact {
		return dist.ConvolveAllExact(perSet, maxSupport, strategy, probe)
	}
	return dist.ConvolveAllCancelWith(perSet, maxSupport, workers, strategy, probe)
}

// convolveTransient folds the transient extra-miss penalty into the
// accumulator: per set, the step-scaled binomial distribution of extra
// misses — at most HitBounds[s] vulnerable accesses, each upset with
// the model's per-access probability — convolved across independent
// sets by the same reduction tree as the permanent stage. Each per-set
// binomial is coarsened to the support cap before entering the tree
// (unlike the permanent per-set distributions, whose support is at most
// Ways+1 atoms, a binomial can carry thousands). A zero PMiss
// contributes nothing and returns the accumulator unchanged, which is
// what makes Combined(pfail, lambda=0) byte-identical to
// Permanent(pfail). probe is convolveSets' cancellation hook.
func convolveTransient(acc *dist.Dist, hb ipet.HitBounds, cfg cache.Config, tm fault.TransientModel,
	maxSupport int, strategy dist.CoarsenStrategy, workers int, exact bool,
	probe func() error) (*dist.Dist, error) {
	if tm.PMiss == 0 {
		return acc, nil
	}
	perSet := make([]*dist.Dist, len(hb))
	for s, n := range hb {
		pts, err := fault.BinomialPoints(n, tm.PMiss, cfg.MissPenalty())
		if err != nil {
			return nil, fmt.Errorf("core: set %d transient distribution: %w", s, err)
		}
		d, err := dist.New(pts)
		if err != nil {
			return nil, fmt.Errorf("core: set %d transient distribution: %w", s, err)
		}
		perSet[s] = d.CoarsenToWith(maxSupport, strategy)
	}
	total, err := convolveSets(perSet, maxSupport, strategy, workers, exact, probe)
	if err != nil {
		return nil, err
	}
	return foldPenalty(acc, total, maxSupport, strategy)
}

// foldPenalty convolves a reduced penalty distribution into the
// accumulator and coarsens the result, or reports an error when the
// largest penalty sum overflows int64.
func foldPenalty(acc, total *dist.Dist, maxSupport int, strategy dist.CoarsenStrategy) (*dist.Dist, error) {
	if _, ok := addCycles(acc.Max(), total.Max()); !ok {
		return nil, fmt.Errorf("core: penalty fold (%d + %d) overflows int64", acc.Max(), total.Max())
	}
	return acc.ConvolveCoarsen(total, maxSupport, strategy), nil
}

// addCycles returns a+b and whether it fits int64.
func addCycles(a, b int64) (int64, bool) {
	s := a + b
	return s, (s > a) == (b > 0)
}

// mulCycles returns a*b and whether it fits int64.
func mulCycles(a, b int64) (int64, bool) {
	p := a * b
	if a != 0 && (p/a != b || (a == -1 && b == math.MinInt64)) {
		return p, false
	}
	return p, true
}

// PWCETAt returns the pWCET at an arbitrary exceedance probability,
// using the mixture bound when the precise SRB analysis is enabled. It
// is the one read-off rule: Result.PWCET is PWCETAt at the result's own
// Query.TargetExceedance, for one-shot, engine and batch results alike.
func (r *Result) PWCETAt(p float64) int64 {
	if r.PenaltyPrecise != nil {
		return r.FaultFreeWCET + r.mixtureQuantile(p)
	}
	return r.FaultFreeWCET + r.Penalty.QuantileExceedance(p)
}

// ExceedanceCurve returns the complementary cumulative distribution of
// the pWCET (Figure 3): pairs (execution time, probability that the WCET
// exceeds it).
func (r *Result) ExceedanceCurve() []dist.Point {
	return r.Penalty.Shift(r.FaultFreeWCET).Curve()
}

// Gain returns the relative pWCET reduction of a protected architecture
// against a baseline (paper Section IV.B: gain of RW/SRB vs no
// protection).
func Gain(baseline, protected *Result) float64 {
	if baseline.PWCET == 0 {
		return 0
	}
	return 1 - float64(protected.PWCET)/float64(baseline.PWCET)
}

// AnalyzeAll runs the analysis for the three architectures of the paper's
// evaluation as one batch of a throwaway Engine, sharing the expensive
// common work: the cache analyses, the IPET system (with its warm
// simplex basis) and the FMM columns for f < W are identical across
// mechanisms; only the f = W column differs (absent for RW,
// SRB-filtered for SRB). q's Mechanism is ignored; each result is
// byte-identical to the Engine's Analyze of q under that mechanism
// (asserted by tests) at roughly a third of the cost. Query fields that
// specialize a single mechanism (PreciseSRB, DataCache) are not
// supported here — use Analyze.
func AnalyzeAll(p *program.Program, eo EngineOptions, q Query) (map[cache.Mechanism]*Result, error) {
	if q.PreciseSRB || q.DataCache != nil {
		return nil, fmt.Errorf("core: AnalyzeAll does not support PreciseSRB or DataCache; call Analyze per mechanism")
	}
	e, err := NewEngine(p, eo)
	if err != nil {
		return nil, err
	}
	mechs := []cache.Mechanism{cache.MechanismNone, cache.MechanismRW, cache.MechanismSRB}
	queries := make([]Query, len(mechs))
	for i, m := range mechs {
		queries[i] = q
		queries[i].Mechanism = m
	}
	results, err := e.AnalyzeBatch(queries)
	if err != nil {
		return nil, err
	}
	out := make(map[cache.Mechanism]*Result, len(mechs))
	for i, m := range mechs {
		out[m] = results[i]
	}
	return out, nil
}

// Classification bundles the reference classification of a program so
// reporting tools and tests can inspect it without re-running fixpoints.
type Classification struct {
	Refs    []absint.Ref
	Classes []chmc.Class
	SRBHit  []bool
}

// Classify runs only the cache analyses (no ILP) and returns the
// fault-free classification of every reference.
func Classify(p *program.Program, cfg cache.Config) *Classification {
	a := absint.New(p, cfg)
	return &Classification{Refs: a.Refs(), Classes: a.ClassifyAll(), SRBHit: a.ClassifySRB()}
}
