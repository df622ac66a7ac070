// Package pwcet is the public API of the reproduction of "Probabilistic
// WCET estimation in presence of hardware for mitigating the impact of
// permanent faults" (Hardy, Puaut, Sazeides — DATE 2016).
//
// It estimates probabilistic worst-case execution times (pWCET) of
// programs running on a processor whose set-associative LRU instruction
// cache suffers permanent SRAM faults, for three architectures:
//
//   - no protection: faulty blocks are disabled (baseline of Hardy &
//     Puaut, RTS 2015);
//   - RW, the Reliable Way: one fault-resilient way per set;
//   - SRB, the Shared Reliable Buffer: one fault-resilient block-sized
//     buffer shared by all sets, used when a whole set is faulty.
//
// # Quick start
//
// The primary entry point is the Engine: a reusable analysis session
// for one program that memoizes the expensive pipeline stages (CFG and
// IPET system construction, the Must/May/Persistence fixpoints, the
// fault-free WCET, the per-set fault-miss-map ILP solves) across
// queries, so sweeps over pfail, mechanism, target or cache geometry
// pay for them once:
//
//	b := pwcet.NewProgram("example")
//	b.Func("main").Loop(100, func(l *pwcet.Body) { l.Ops(12) })
//	p, err := b.Build()
//	// handle err
//	eng, err := pwcet.NewEngine(p, pwcet.EngineOptions{})
//	// handle err
//	res, err := eng.Analyze(pwcet.Query{Pfail: 1e-4, Mechanism: pwcet.RW})
//	// handle err
//	fmt.Println(res.FaultFreeWCET, res.PWCET)
//
// Engine.AnalyzeBatch evaluates many queries at once over a worker
// pool with shared-work deduplication: memoized artifacts are computed
// once per engine, and queries that differ only in their exceedance
// target share one penalty distribution, weighted and convolved once
// and read off at each member's target. Every result stays
// byte-identical to a solo Analyze of its query.
// Engine.AnalyzeBatchStream and Engine.AnalyzeBatchChanContext stream
// indexed results as they complete. For a single configuration, the
// one-shot Analyze and AnalyzeAll helpers wrap a throwaway Engine.
//
// The paper's 25-benchmark Mälardalen evaluation is available through
// Benchmarks and Benchmark; cmd/paperfigs regenerates every figure and
// cmd/pwcet -batch runs JSON-specified sweeps.
//
// # Fault models
//
// The fault environment of an analysis is a Scenario (Query.Scenario),
// one of:
//
//   - Permanent{Pfail}: the paper's model — every SRAM cell fails at
//     boot with probability Pfail and stays failed. A nil Scenario
//     defaults to Permanent at the legacy Pfail field, byte-identical
//     to the historical pipeline.
//   - Transient{Lambda}: per-access SEUs — soft errors strike each
//     cache line as an independent Poisson process with rate Lambda
//     (upsets per line per cycle), invalidating the line; an access
//     that would have hit pays an extra miss when an upset struck its
//     line since the previous access.
//   - Combined{Pfail, Lambda}: both at once. The permanent and
//     transient fault populations are independent, so their penalty
//     distributions convolve; Combined{Pfail, 0} is equivalent to
//     Permanent{Pfail} and Combined{0, Lambda} to Transient{Lambda}.
//
// The transient analysis is a sound exceedance upper bound, not an
// exact distribution: each set's extra-miss count is bounded by a
// binomial — at most N_s vulnerable (hit-classified) accesses from a
// per-set ILP, each upset independently with probability
// 1-exp(-Lambda*D) for a window bound D on the run duration — which
// stochastically dominates the true count. Reliability mechanisms
// (RW, SRB) shield only permanent faults, so a pure Transient
// scenario yields the same result for every Mechanism, and
// Result.FMM is nil (there is no permanent component to map).
// Transient and Combined scenarios are not combinable with PreciseSRB
// or DataCache.
//
// # Parallelism and determinism
//
// The per-set stages of an analysis — the fault-miss-map and hit-bound
// ILP solves and the penalty convolution — are independent across
// cache sets and fan out over at most EngineOptions.Workers goroutines
// (0 uses GOMAXPROCS, 1 runs everything in order on the calling
// goroutine; cmd/pwcet exposes it as -workers). The sets' solves run
// concurrently, and so do the merge nodes of one depth of the
// convolution tree once the shallower depths are done. Engine batches
// additionally schedule their groups of queries the same way. The results
// are byte-identical for every worker count and batch order: each
// set's ILPs are solved on a private simplex restored to the same
// pristine basis, the per-set distributions are reduced by a merge
// plan that depends only on their canonical order and support sizes
// (never on the worker count), every merge node runs one sequential
// convolution, and every memoized Engine artifact is a pure function
// of its key, so neither goroutine scheduling nor pool size nor query
// interleaving can influence any FMM entry, distribution atom, or
// pWCET. Parallelism changes wall-clock time, never results.
//
// The optimized hot paths keep differential escape hatches:
// EngineOptions.Reference re-runs an analysis on the retained dense
// simplex and map-based abstract domain, and EngineOptions.ExactConvolve
// routes the penalty reduction through the exact convolution fold (no
// shared-subtree reuse, no in-tree coarsening) — both exist to
// validate the fast paths, which the differential suites pin
// byte-identical (exactly, or whenever the support cap does not
// bind, respectively).
//
// # Bounded memory and serving
//
// By default an Engine retains every memoized artifact for its
// lifetime. Long-lived processes sweeping many cache geometries set
// EngineOptions.MaxArtifactBytes to bound the resident estimated
// bytes: artifacts are tracked on an LRU list and cold ones are
// evicted once the budget is exceeded. Because every artifact is a
// pure function of its key, eviction never changes results — a
// re-query recomputes byte-identical values and only costs time.
// Engine.MemStats reports residency and hit/miss/eviction counters.
//
// cmd/pwcetd builds on this: an HTTP service streaming batch results
// as NDJSON (byte-identical to cmd/pwcet -batch -ndjson) from a
// bounded pool of per-program engines, with API-key auth, rate
// limits, JSON metrics and graceful drain; internal/serve holds the
// testable handler layer.
//
// # Robustness
//
// Every analysis entry point has a context-aware twin —
// Engine.AnalyzeContext, Engine.AnalyzeBatchContext and
// Engine.AnalyzeBatchStreamContext — that observes cancellation and
// deadlines at every expensive boundary (per-set LP solves, simplex
// pivot batches, convolution-tree merge nodes). A canceled query
// returns ctx.Err() promptly, unwinds its worker goroutines and
// unpins its LRU working set; memoized artifacts computed before the
// cancellation stay valid, so the engine remains fully usable. The
// context-free signatures are thin context.Background() wrappers and
// behave exactly as before.
//
// Queries may also set Query.SoftDeadline, a per-query latency
// budget: when an attempt overruns it, the engine retries with a
// geometrically tighter penalty-support cap (a coarser but still
// sound analysis — capping only redistributes probability mass
// upward) and flags the outcome Result.Degraded instead of failing.
// Because the final attempt runs without a deadline, a soft deadline
// never turns into an error; the degraded pWCET is always an upper
// bound on the exact one.
//
// A panic inside an analysis (a bug, a corrupted artifact, an
// instrumentation Hook failure) is recovered into a *PanicError
// carrying the panic value and stack, and the engine is poisoned. That
// holds as well for a panic on a worker goroutine, in a per-set solve
// or a merge node: the worker's panic is raised again on the query's
// goroutine once every worker has returned, and its PanicError carries
// the stack of the worker that panicked. A concurrent query that
// joined the memoized computation that panicked, or looks its artifact
// up afterwards, fails with the same PanicError rather than read a
// missing artifact. On a poisoned engine
// every subsequent query fails fast with ErrPoisoned instead of
// computing on top of unknown shared state. Poisoned engines are
// evicted from serving pools (internal/serve) so one bad engine
// cannot take down cmd/pwcetd.
//
// For fault-drill testing there is internal/faultpoint, a registry of
// named deterministic injection sites (slow solves, spurious pivot
// limits, forced evictions, mid-stream disconnects) that compiles to
// no-ops unless the pwcetfault build tag is set, plus cmd/soak, a
// chaos harness that hammers a live pwcetd while asserting
// byte-identity against in-process runs and flat memory residency.
package pwcet

import (
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/ipet"
	"repro/internal/malardalen"
	"repro/internal/program"
	"repro/internal/sim"
)

// Re-exported types: the analysis surface.
type (
	// Engine is a reusable analysis session for one program: it
	// memoizes the program- and cache-level artifacts so repeated
	// queries only pay for the cheap probability weighting. Safe for
	// concurrent use; results are byte-identical to one-shot Analyze.
	Engine = core.Engine
	// EngineOptions configures an Engine session (worker pool, artifact
	// memory budget, instrumentation hook, reference escape hatches).
	EngineOptions = core.EngineOptions
	// MemStats reports an Engine's memoized-artifact residency and
	// lookup counters; see Engine.MemStats.
	MemStats = core.MemStats
	// Query selects one analysis configuration (cache, fault scenario,
	// mechanism, target, support cap).
	Query = core.Query
	// BatchResult is one indexed outcome of a streaming batch.
	BatchResult = core.BatchResult
	// Artifact identifies a class of memoized Engine computation.
	Artifact = core.Artifact
	// ArtifactEvent describes one Engine artifact computation; see
	// EngineOptions.Hook.
	ArtifactEvent = core.ArtifactEvent
	// CacheConfig describes a set-associative instruction cache.
	CacheConfig = cache.Config
	// Mechanism selects the reliability hardware (None, RW, SRB).
	Mechanism = cache.Mechanism
	// FaultMap records which cache blocks are permanently faulty.
	FaultMap = cache.FaultMap
	// Result is the outcome of one pWCET analysis.
	Result = core.Result
	// PanicError wraps a panic recovered inside an analysis; the
	// offending Engine is poisoned (see ErrPoisoned).
	PanicError = core.PanicError
	// Dist is a discrete probability distribution over penalties.
	Dist = dist.Dist
	// Point is one (value, probability) atom of a distribution.
	Point = dist.Point
	// CoarsenStrategy selects how over-cap penalty supports are
	// coarsened (Query.Coarsen). Both strategies are
	// sound exceedance upper bounds; see CoarsenLeastError and
	// CoarsenKeepHeaviest.
	CoarsenStrategy = dist.CoarsenStrategy
	// FMM is the Fault Miss Map: FMM[set][faultyBlocks] bounds the
	// fault-induced misses.
	FMM = ipet.FMM
	// FaultModel carries pfail and the derived block failure
	// probability of equation 1.
	FaultModel = fault.Model
	// VoltageModel maps DVFS supply voltage to per-bit failure
	// probability (calibrated against the paper's low-voltage citation).
	VoltageModel = fault.VoltageModel
	// Scenario is a composable description of the fault environment
	// (Query.Scenario); see the "Fault models"
	// section of the package documentation.
	Scenario = fault.Scenario
	// Permanent is the paper's fault scenario: SRAM cells fail at boot
	// with probability Pfail and stay failed (equations 1-3).
	Permanent = fault.Permanent
	// Transient is the SEU fault scenario: soft errors strike cache
	// lines as independent Poisson processes with rate Lambda per line
	// per cycle, each invalidating the struck line.
	Transient = fault.Transient
	// Combined composes a permanently degraded cache (Pfail) with soft
	// errors (Lambda); the independent penalty distributions convolve.
	Combined = fault.Combined
	// ScenarioKind identifies a scenario family (permanent, transient,
	// combined).
	ScenarioKind = fault.Kind
	// TransientModel carries the derived per-access SEU parameters of
	// one analysis (Result.Transient): the rate, the inter-access
	// window bound and the per-access extra-miss probability.
	TransientModel = fault.TransientModel
)

// ErrPoisoned is returned by every query against an Engine that
// recovered a panic earlier; see the Robustness section of the
// package documentation.
var ErrPoisoned = core.ErrPoisoned

// Scenario kinds, the values ScenarioKind takes.
const (
	ScenarioPermanent = fault.KindPermanent
	ScenarioTransient = fault.KindTransient
	ScenarioCombined  = fault.KindCombined
)

// ParseScenarioKind converts "permanent", "transient" or "combined" to
// a ScenarioKind (the spellings ScenarioKind.String returns, also used
// by the batch-spec "fault_model" field and the -fault-model CLI flag).
func ParseScenarioKind(s string) (ScenarioKind, error) { return fault.ParseKind(s) }

// Components splits any scenario into its permanent and transient
// parameters: the per-bit failure probability (0 for pure Transient)
// and the SEU rate lambda (0 for pure Permanent).
func Components(s Scenario) (pfail, lambda float64) { return fault.Components(s) }

// DefaultVoltageModel returns the low-voltage SRAM failure calibration
// (pfail = 1e-3 at 0.5V, per the paper's citation of Zhou et al.).
func DefaultVoltageModel() VoltageModel { return fault.DefaultVoltageModel() }

// Re-exported types: program authoring.
type (
	// Builder assembles a program from structured functions.
	Builder = program.Builder
	// Body is a sequence of statements (Ops/Loop/If/Call/Switch).
	Body = program.Body
	// Program is an assembled, analyzable program.
	Program = program.Program
)

// Reliability mechanisms (Section III.A of the paper).
const (
	// None: faulty blocks are disabled, nothing masks them.
	None = cache.MechanismNone
	// RW: the Reliable Way.
	RW = cache.MechanismRW
	// SRB: the Shared Reliable Buffer.
	SRB = cache.MechanismSRB
)

// Coarsening strategies for the convolution support cap. The default
// CoarsenLeastError merges the adjacent atom pair adding the least
// exceedance-curve error, which keeps the deep-tail quantiles (the
// 1e-9..1e-15 certification targets) within a small factor of the
// uncapped-exact values even when the cap binds hard; the legacy
// CoarsenKeepHeaviest keeps the heaviest atoms and reproduces the
// pre-tail-faithful results. When the cap never binds the strategies
// are byte-identical (the cap is a no-op).
const (
	CoarsenLeastError   = dist.CoarsenLeastError
	CoarsenKeepHeaviest = dist.CoarsenKeepHeaviest
)

// ParseCoarsenStrategy converts "least-error" or "keep-heaviest" to a
// CoarsenStrategy (the spellings CoarsenStrategy.String returns).
func ParseCoarsenStrategy(s string) (CoarsenStrategy, error) {
	return dist.ParseCoarsenStrategy(s)
}

// DefaultTargetExceedance is the paper's 1e-15 target probability.
const DefaultTargetExceedance = core.DefaultTargetExceedance

// PaperCache returns the evaluation cache of Section IV.A: 1KB, 4 ways,
// 16-byte lines, 1-cycle hit, 100-cycle memory.
func PaperCache() CacheConfig { return cache.PaperConfig() }

// NewProgram starts building a program with the given name.
func NewProgram(name string) *Builder { return program.New(name) }

// NewEngine builds a reusable analysis session for the program. The
// session verifies the program and constructs the IPET system once;
// every further artifact (cache fixpoints, fault-free WCET, per-set
// FMMs) is computed lazily on first use and shared by all subsequent
// Analyze and AnalyzeBatch queries.
func NewEngine(p *Program, opt EngineOptions) (*Engine, error) {
	return core.NewEngine(p, opt)
}

// Analyze runs the pWCET analysis of a program under one query, on a
// throwaway Engine with default options; callers analyzing the same
// program more than once should hold an Engine instead.
func Analyze(p *Program, q Query) (*Result, error) {
	e, err := core.NewEngine(p, EngineOptions{})
	if err != nil {
		return nil, err
	}
	return e.Analyze(q)
}

// AnalyzeAll analyzes a program under all three architectures (none, RW,
// SRB) with an otherwise identical query, as one shared-work batch of a
// throwaway Engine with default options.
func AnalyzeAll(p *Program, q Query) (map[Mechanism]*Result, error) {
	return core.AnalyzeAll(p, EngineOptions{}, q)
}

// Gain returns the relative pWCET reduction of protected vs baseline.
func Gain(baseline, protected *Result) float64 { return core.Gain(baseline, protected) }

// Benchmarks lists the names of the 25-benchmark Mälardalen-like suite.
func Benchmarks() []string { return malardalen.Names() }

// Benchmark builds the named suite benchmark.
func Benchmark(name string) (*Program, error) { return malardalen.Get(name) }

// PBF computes the block failure probability of equation 1.
func PBF(pfail float64, blockBits int) float64 { return fault.PBF(pfail, blockBits) }

// ParseMechanism converts "none", "rw" or "srb" to a Mechanism.
func ParseMechanism(s string) (Mechanism, error) { return cache.ParseMechanism(s) }

// ValidationReport summarizes a Monte-Carlo soundness check.
type ValidationReport = sim.Report

// Validate samples fault maps from the result's fault model, simulates
// the program on random paths with a cycle-accurate cache model, and
// checks that no simulation exceeds its analytical bound. A sound
// analysis yields zero BoundViolations and zero CCDFViolations.
func Validate(p *Program, res *Result, samples, pathsPerSample int, seed int64) (*ValidationReport, error) {
	return sim.Validate(p, res, samples, pathsPerSample, seed)
}
