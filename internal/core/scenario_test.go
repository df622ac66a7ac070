package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/fault"
	"repro/internal/malardalen"
)

// sweepLambdas is the SEU-rate sweep used by the transient scenario
// tests: from negligible to rates where the per-access upset
// probability saturates the window.
var sweepLambdas = []float64{1e-15, 1e-12, 1e-10, 1e-9, 1e-8}

// assertSameDistributions compares the distribution-level output of two
// results — fault-free WCET, every penalty atom, the pWCET and the full
// exceedance curve — without touching FMM/PerSet. Degenerate-scenario
// equivalences (Combined with a zero axis vs the pure scenario) agree
// on these but legitimately differ in which permanent-side artifacts
// they carry (a pure Transient result has no FMM at all).
func assertSameDistributions(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.FaultFreeWCET != want.FaultFreeWCET {
		t.Fatalf("%s: fault-free WCET %d vs %d", label, got.FaultFreeWCET, want.FaultFreeWCET)
	}
	if !reflect.DeepEqual(got.Penalty.Points(), want.Penalty.Points()) {
		t.Fatalf("%s: penalty distribution diverged", label)
	}
	if got.PWCET != want.PWCET {
		t.Fatalf("%s: pWCET %d vs %d", label, got.PWCET, want.PWCET)
	}
	if !reflect.DeepEqual(got.ExceedanceCurve(), want.ExceedanceCurve()) {
		t.Fatalf("%s: exceedance curve diverged", label)
	}
}

// TestPermanentScenarioByteIdenticalToLegacy is the refactor's central
// differential pin: spelling the paper's model as an explicit
// fault.Permanent scenario is byte-identical to the legacy Pfail
// field across Mälardalen programs, two cache geometries, all
// mechanisms and worker counts. The scenario layer must be a pure
// re-plumbing of the permanent path, not a reimplementation.
func TestPermanentScenarioByteIdenticalToLegacy(t *testing.T) {
	cfg256 := cache.Config{Sets: 256, Ways: 4, BlockBytes: 16, HitLatency: 1, MemLatency: 100}
	cases := []struct {
		bench string
		cfg   cache.Config
	}{
		{"adpcm", cache.PaperConfig()},
		{"crc", cache.PaperConfig()},
		{"crc", cfg256},
		{"matmult", cache.PaperConfig()},
		{"bs", cfg256},
	}
	for _, tc := range cases {
		for _, mech := range []cache.Mechanism{cache.MechanismNone, cache.MechanismRW, cache.MechanismSRB} {
			p := malardalen.MustGet(tc.bench)
			legacy := Options{Cache: tc.cfg, Pfail: 1e-4, Mechanism: mech}
			want, err := Analyze(p, legacy)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				label := fmt.Sprintf("%s/sets=%d/%v/workers=%d", tc.bench, tc.cfg.Sets, mech, workers)
				opt := Options{Cache: tc.cfg, Scenario: fault.Permanent{Pfail: 1e-4}, Mechanism: mech, Workers: workers}
				got, err := Analyze(p, opt)
				if err != nil {
					t.Fatal(err)
				}
				assertResultsByteIdentical(t, label, got, want)
				if got.Scenario != (fault.Permanent{Pfail: 1e-4}) {
					t.Fatalf("%s: resolved scenario %v", label, got.Scenario)
				}
			}
			// The legacy spelling resolves to the same scenario value.
			if want.Scenario != (fault.Permanent{Pfail: 1e-4}) {
				t.Fatalf("legacy options resolved to %v, want fault.Permanent", want.Scenario)
			}
		}
	}
}

// TestCombinedDegeneratesToPermanent: Combined(pfail, lambda=0) carries
// the identical permanent machinery and a zero-rate transient stage
// that must be a strict no-op — every artifact byte-identical to the
// pure Permanent analysis.
func TestCombinedDegeneratesToPermanent(t *testing.T) {
	p := malardalen.MustGet("crc")
	for _, mech := range []cache.Mechanism{cache.MechanismNone, cache.MechanismRW, cache.MechanismSRB} {
		for _, pf := range []float64{6.1e-13, 1e-4, 1e-3} {
			label := fmt.Sprintf("%v pfail=%g", mech, pf)
			want, err := Analyze(p, Options{Pfail: pf, Mechanism: mech})
			if err != nil {
				t.Fatal(err)
			}
			got, err := Analyze(p, Options{Scenario: fault.Combined{Pfail: pf}, Mechanism: mech})
			if err != nil {
				t.Fatal(err)
			}
			assertResultsByteIdentical(t, label, got, want)
			if got.Transient.PMiss != 0 {
				t.Fatalf("%s: lambda=0 produced PMiss %g", label, got.Transient.PMiss)
			}
			if got.HitBounds == nil {
				t.Fatalf("%s: combined scenario did not compute hit bounds", label)
			}
		}
	}
}

// TestCombinedDegeneratesToTransient: Combined(pfail=0, lambda) equals
// the pure Transient analysis on every distribution atom. (The results
// are compared at the distribution level: the pure Transient run
// carries no FMM by design, while the combined run computes one whose
// pfail-0 weighting contributes a point mass at zero.)
func TestCombinedDegeneratesToTransient(t *testing.T) {
	p := malardalen.MustGet("crc")
	for _, mech := range []cache.Mechanism{cache.MechanismNone, cache.MechanismSRB} {
		for _, la := range sweepLambdas {
			label := fmt.Sprintf("%v lambda=%g", mech, la)
			want, err := Analyze(p, Options{Scenario: fault.Transient{Lambda: la}, Mechanism: mech})
			if err != nil {
				t.Fatal(err)
			}
			got, err := Analyze(p, Options{Scenario: fault.Combined{Lambda: la}, Mechanism: mech})
			if err != nil {
				t.Fatal(err)
			}
			assertSameDistributions(t, label, got, want)
			if got.Transient != want.Transient {
				t.Fatalf("%s: transient models diverged: %+v vs %+v", label, got.Transient, want.Transient)
			}
			if !reflect.DeepEqual(got.HitBounds, want.HitBounds) {
				t.Fatalf("%s: hit bounds diverged", label)
			}
			if want.FMM != nil {
				t.Fatalf("%s: pure transient result carries an FMM", label)
			}
		}
	}
}

// TestTransientMechanismInvariant: the pure SEU analysis uses the
// fault-free classification only — no permanent fault map exists for a
// mitigation mechanism to mitigate — so the result must not depend on
// the mechanism at all.
func TestTransientMechanismInvariant(t *testing.T) {
	p := malardalen.MustGet("bs")
	base, err := Analyze(p, Options{Scenario: fault.Transient{Lambda: 1e-9}, Mechanism: cache.MechanismNone})
	if err != nil {
		t.Fatal(err)
	}
	for _, mech := range []cache.Mechanism{cache.MechanismRW, cache.MechanismSRB} {
		got, err := Analyze(p, Options{Scenario: fault.Transient{Lambda: 1e-9}, Mechanism: mech})
		if err != nil {
			t.Fatal(err)
		}
		assertSameDistributions(t, fmt.Sprintf("mech=%v", mech), got, base)
	}
}

// TestTransientMonotoneInLambda: a higher SEU rate can only worsen the
// exceedance bound — pWCET must be non-decreasing along the lambda
// sweep, and the lambda=0 transient scenario must collapse to the
// fault-free WCET exactly.
func TestTransientMonotoneInLambda(t *testing.T) {
	p := malardalen.MustGet("crc")
	zero, err := Analyze(p, Options{Scenario: fault.Transient{}})
	if err != nil {
		t.Fatal(err)
	}
	if zero.PWCET != zero.FaultFreeWCET {
		t.Fatalf("lambda=0: pWCET %d, want the fault-free WCET %d", zero.PWCET, zero.FaultFreeWCET)
	}
	prev := zero.PWCET
	for _, la := range sweepLambdas {
		r, err := Analyze(p, Options{Scenario: fault.Transient{Lambda: la}})
		if err != nil {
			t.Fatal(err)
		}
		if r.PWCET < prev {
			t.Fatalf("lambda=%g: pWCET %d dropped below %d", la, r.PWCET, prev)
		}
		if r.PWCET < r.FaultFreeWCET {
			t.Fatalf("lambda=%g: pWCET %d below the fault-free WCET %d", la, r.PWCET, r.FaultFreeWCET)
		}
		prev = r.PWCET
	}
}

// TestEngineScenarioSweepByteIdentical: a mixed scenario batch through
// one engine is byte-identical to independent one-shot Analyze calls —
// the memoized hit-bound and FMM artifacts must not leak between
// scenario kinds.
func TestEngineScenarioSweepByteIdentical(t *testing.T) {
	p := malardalen.MustGet("crc")
	var queries []Query
	for _, la := range sweepLambdas {
		queries = append(queries, Query{Scenario: fault.Transient{Lambda: la}})
		queries = append(queries, Query{Scenario: fault.Combined{Pfail: 1e-4, Lambda: la}, Mechanism: cache.MechanismSRB})
	}
	queries = append(queries,
		Query{Pfail: 1e-4, Mechanism: cache.MechanismSRB},
		Query{Scenario: fault.Permanent{Pfail: 1e-4}, Mechanism: cache.MechanismSRB},
	)
	for _, workers := range []int{1, 4} {
		e, err := NewEngine(p, EngineOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		batch, err := e.AnalyzeBatch(queries)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range queries {
			solo, err := Analyze(p, Options{
				Cache: q.Cache, Pfail: q.Pfail, Scenario: q.Scenario,
				Mechanism: q.Mechanism, Workers: workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			// Options echoes differ (Workers is engine-wide); compare
			// the analysis artifacts.
			solo.Options = batch[i].Options
			requireDeepEqualResult(t, fmt.Sprintf("workers=%d query %d (%+v)", workers, i, q), solo, batch[i])
		}
	}
}

// TestEngineMemoizesTransientBound: the per-set hit bounds are a
// scenario-independent, mechanism-independent artifact of the
// classification context — a full lambda x mechanism x scenario-kind
// sweep on one engine computes them exactly once (the counting hook
// shows one transient-bound event), alongside exactly one WCET and one
// FMM core.
func TestEngineMemoizesTransientBound(t *testing.T) {
	p := buildLoop(t)
	h := &countingHook{}
	e, err := NewEngine(p, EngineOptions{Hook: h.hook})
	if err != nil {
		t.Fatal(err)
	}
	var queries []Query
	for _, la := range sweepLambdas {
		for _, mech := range []cache.Mechanism{cache.MechanismNone, cache.MechanismRW, cache.MechanismSRB} {
			queries = append(queries, Query{Scenario: fault.Transient{Lambda: la}, Mechanism: mech})
			queries = append(queries, Query{Scenario: fault.Combined{Pfail: 1e-4, Lambda: la}, Mechanism: mech})
		}
	}
	if _, err := e.AnalyzeBatch(queries); err != nil {
		t.Fatal(err)
	}
	want := map[string]int{
		"classification/sets=16,ways=4/data=false":                     1,
		"srb-classification/sets=16,ways=4/data=false":                 1,
		"wcet/sets=16,ways=4/data=false":                               1,
		"transient-bound/sets=16,ways=4/data=false":                    1,
		"fmm-core/sets=16,ways=4/data=false":                           1,
		"fmm-column/sets=16,ways=4/data=false/mech=none,precise=false": 1,
		"fmm-column/sets=16,ways=4/data=false/mech=srb,precise=false":  1,
	}
	if got := h.snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("artifact computation counts:\n got %v\nwant %v", got, want)
	}
	// Re-running the sweep finds everything memoized.
	if _, err := e.AnalyzeBatch(queries); err != nil {
		t.Fatal(err)
	}
	if got := h.snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("second identical sweep recomputed artifacts:\n got %v\nwant %v", got, want)
	}
}

// TestEngineTransientEvictionByteIdentical extends the bounded-memory
// invariant to the transient artifact: under a 1-byte budget the hit
// bounds are evicted and recomputed (visible through repeated
// transient-bound hook events), while every result stays byte-identical
// to the unbounded engine.
func TestEngineTransientEvictionByteIdentical(t *testing.T) {
	p := buildLoop(t)
	var queries []Query
	for _, la := range sweepLambdas[:3] {
		queries = append(queries,
			Query{Scenario: fault.Transient{Lambda: la}},
			Query{Scenario: fault.Combined{Pfail: 1e-3, Lambda: la}, Mechanism: cache.MechanismSRB},
		)
	}
	unbounded, err := NewEngine(p, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := unbounded.AnalyzeBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	h := &countingHook{}
	bounded, err := NewEngine(p, EngineOptions{MaxArtifactBytes: 1, Hook: h.hook})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		got, err := bounded.AnalyzeBatch(queries)
		if err != nil {
			t.Fatal(err)
		}
		for i := range queries {
			requireDeepEqualResult(t, fmt.Sprintf("round %d query %d", round, i), ref[i], got[i])
		}
	}
	if ms := bounded.MemStats(); ms.Evictions == 0 || ms.ArtifactBytes != 0 {
		t.Errorf("1-byte budget: evictions %d (want > 0), resident %d (want 0)", ms.Evictions, ms.ArtifactBytes)
	}
	if n := h.snapshot()["transient-bound/sets=16,ways=4/data=false"]; n < 2 {
		t.Errorf("transient-bound computed %d times under eviction, want >= 2", n)
	}
	requireAccounting(t, bounded)
}

// TestScenarioOptionErrors pins the option-validation surface of the
// scenario layer: ambiguous spellings, invalid parameters, and the
// permanent-only analysis modes.
func TestScenarioOptionErrors(t *testing.T) {
	p := buildLoop(t)
	dcfg := cache.Config{Sets: 4, Ways: 2, BlockBytes: 8, HitLatency: 1, MemLatency: 10}
	cases := []struct {
		label string
		opt   Options
		want  string
	}{
		{"both pfail and scenario",
			Options{Pfail: 1e-4, Scenario: fault.Transient{Lambda: 1e-9}},
			"use exactly one"},
		{"negative lambda",
			Options{Scenario: fault.Transient{Lambda: -1}},
			"lambda"},
		{"combined pfail out of range",
			Options{Scenario: fault.Combined{Pfail: 2, Lambda: 1e-9}},
			"pfail"},
		{"transient with PreciseSRB",
			Options{Scenario: fault.Transient{Lambda: 1e-9}, Mechanism: cache.MechanismSRB, PreciseSRB: true},
			"permanent only"},
		{"combined with data cache",
			Options{Scenario: fault.Combined{Pfail: 1e-4, Lambda: 1e-9}, DataCache: &dcfg},
			"permanent only"},
	}
	for _, tc := range cases {
		_, err := Analyze(p, tc.opt)
		if err == nil {
			t.Errorf("%s: Analyze accepted %+v", tc.label, tc.opt)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.label, err, tc.want)
		}
		// The engine path must reject the same spellings.
		e, err := NewEngine(p, EngineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		q := Query{Pfail: tc.opt.Pfail, Scenario: tc.opt.Scenario, Mechanism: tc.opt.Mechanism,
			PreciseSRB: tc.opt.PreciseSRB, DataCache: tc.opt.DataCache}
		if _, err := e.Analyze(q); err == nil {
			t.Errorf("%s: engine accepted %+v", tc.label, q)
		}
	}
}
