// Package faultpoint is a registry of named fault-injection sites for
// chaos testing the analysis engine and service. Production code marks
// a site with Hit (error/panic/sleep actions) or Fires (control-flow
// toggles); tests and cmd/soak arm sites with Enable/EnableSpecs.
//
// The package mirrors the pwcetcheck sanitizer discipline: without the
// pwcetfault build tag every probe compiles to an inlinable no-op and
// EnableSpecs reports an error, so the default build carries zero injection
// machinery. With -tags pwcetfault the registry is live and fully
// deterministic — firing decisions depend only on the spec and the
// site's hit counter (probabilistic specs use a seeded generator), so a
// chaos run replays exactly from its seed.
//
// # Spec grammar
//
//	action[:param][,every=N][,after=N][,count=N][,prob=P][,seed=S]
//
// Actions:
//
//	error        Hit returns an *InjectedError for the site
//	panic        Hit panics with an *InjectedError
//	sleep:DUR    Hit sleeps for DUR (time.ParseDuration) and returns nil
//	on           Fires returns true (Hit is a no-op for this action)
//
// Modifiers (all optional): after=N skips the first N hits, every=N
// then fires on every Nth eligible hit, count=N caps total firings,
// prob=P (with seed=S, default 1) fires eligible hits with probability
// P from a site-local seeded generator.
//
// EnableSpecs arms several sites at once from a single string of
// semicolon-separated site=spec pairs — the format of the pwcetd
// -fault flag:
//
//	core.force-evict=on;serve.disconnect=error,after=5,count=1
//
// # Site catalog
//
// The compiled-in sites (each documented at its call site):
//
//	core.engine-build   spurious NewEngine failure (Hit)
//	core.analyze        panic or slow-down inside an analysis (Hit)
//	core.force-evict    evict all unpinned artifacts on every eviction
//	                    pass regardless of budget — eviction-under-pin
//	                    chaos; behavior-invariant by the LRU contract
//	                    (Fires)
//	lp.slow-solve       sleep at the top of every Simplex.Maximize,
//	                    wedging the solver to force soft-deadline
//	                    degradation (Hit)
//	lp.pivot-limit      spurious ErrPivotLimit from Maximize (Fires)
//	serve.disconnect    simulated client disconnect mid-NDJSON-stream
//	                    (Fires)
package faultpoint

// InjectedError is the error Hit returns (action "error") or panics
// with (action "panic"). Callers that must distinguish injected faults
// from organic ones can errors.As against it.
type InjectedError struct {
	// Site is the injection site that fired.
	Site string
}

// Error describes the injected fault.
func (e *InjectedError) Error() string {
	return "faultpoint: injected fault at " + e.Site
}

// Compiled-in site names. Instrumented packages reference these
// constants so a renamed site cannot silently orphan its specs.
const (
	// SiteEngineBuild makes core.NewEngine fail spuriously.
	SiteEngineBuild = "core.engine-build"
	// SiteAnalyze panics or sleeps inside core.Engine analyses.
	SiteAnalyze = "core.analyze"
	// SiteForceEvict evicts every unpinned artifact on each eviction
	// pass, regardless of the configured budget.
	SiteForceEvict = "core.force-evict"
	// SiteSlowSolve sleeps at the top of every lp.Simplex.Maximize.
	SiteSlowSolve = "lp.slow-solve"
	// SitePivotLimit injects a spurious lp.ErrPivotLimit.
	SitePivotLimit = "lp.pivot-limit"
	// SiteDisconnect simulates a client disconnect mid-stream in serve.
	SiteDisconnect = "serve.disconnect"
)

// Sites lists the compiled-in injection sites.
func Sites() []string {
	return []string{
		SiteEngineBuild,
		SiteAnalyze,
		SiteForceEvict,
		SiteSlowSolve,
		SitePivotLimit,
		SiteDisconnect,
	}
}
