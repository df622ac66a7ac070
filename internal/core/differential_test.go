package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/malardalen"
)

// assertResultsByteIdentical compares every analysis artifact of two
// Results: the fault-free WCET, the complete fault miss map, every
// atom of the per-set and total penalty distributions, the pWCET and
// the full exceedance curve. The optimized hot path skips only no-op
// float updates and re-represents the abstract domain, so any
// divergence — a single ulp anywhere — is a bug, not noise.
func assertResultsByteIdentical(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.FaultFreeWCET != want.FaultFreeWCET {
		t.Fatalf("%s: fault-free WCET %d vs reference %d", label, got.FaultFreeWCET, want.FaultFreeWCET)
	}
	if !reflect.DeepEqual(got.FMM, want.FMM) {
		t.Fatalf("%s: FMM diverged:\n%v\nvs reference\n%v", label, got.FMM, want.FMM)
	}
	if got.PWCET != want.PWCET {
		t.Fatalf("%s: pWCET %d vs reference %d", label, got.PWCET, want.PWCET)
	}
	if len(got.PerSet) != len(want.PerSet) {
		t.Fatalf("%s: %d per-set distributions vs reference %d", label, len(got.PerSet), len(want.PerSet))
	}
	for s := range got.PerSet {
		if !reflect.DeepEqual(got.PerSet[s].Points(), want.PerSet[s].Points()) {
			t.Fatalf("%s: per-set distribution %d diverged", label, s)
		}
	}
	if !reflect.DeepEqual(got.Penalty.Points(), want.Penalty.Points()) {
		t.Fatalf("%s: penalty distribution diverged", label)
	}
	if !reflect.DeepEqual(got.ExceedanceCurve(), want.ExceedanceCurve()) {
		t.Fatalf("%s: exceedance curve diverged", label)
	}
	if got.HitRefs != want.HitRefs || got.FMRefs != want.FMRefs || got.MissRefs != want.MissRefs {
		t.Fatalf("%s: classification counts (%d,%d,%d) vs reference (%d,%d,%d)", label,
			got.HitRefs, got.FMRefs, got.MissRefs, want.HitRefs, want.FMRefs, want.MissRefs)
	}
}

// TestOptimizedPipelineMatchesReference pits the compacted/sparse
// simplex and compact abstract domain against the retained dense
// reference implementations across Mälardalen programs, the paper's
// 16-set cache and a 256-set geometry, all three mechanisms, and
// multiple worker counts (run under -race in CI). Everything —
// fault-free WCET, full FMM, every distribution atom, the final pWCET
// curve — must be byte-identical.
func TestOptimizedPipelineMatchesReference(t *testing.T) {
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
			// The reference run fixes the pivot-path-independent truth
			// once; every optimized worker count must reproduce it.
			p := malardalen.MustGet(tc.bench)
			q := Query{Cache: tc.cfg, Pfail: 1e-4, Mechanism: mech}
			want, err := Analyze(p, EngineOptions{Workers: 1, Reference: true}, q)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				label := fmt.Sprintf("%s/sets=%d/%v/workers=%d", tc.bench, tc.cfg.Sets, mech, workers)
				got, err := Analyze(p, EngineOptions{Workers: workers}, q)
				if err != nil {
					t.Fatal(err)
				}
				assertResultsByteIdentical(t, label, got, want)
			}
		}
	}
}

// TestReferenceEngineMatchesOptimizedEngine runs the same query batch
// through a reference engine and an optimized engine: the session layer
// must inherit the byte-identity (artifacts are memoized per engine, so
// this also exercises CopyFrom restores against a warm pristine basis).
func TestReferenceEngineMatchesOptimizedEngine(t *testing.T) {
	p := malardalen.MustGet("crc")
	queries := []Query{
		{Pfail: 1e-4, Mechanism: cache.MechanismNone},
		{Pfail: 1e-4, Mechanism: cache.MechanismRW},
		{Pfail: 1e-4, Mechanism: cache.MechanismSRB},
		{Pfail: 1e-6, Mechanism: cache.MechanismSRB, PreciseSRB: true},
	}
	fast, err := NewEngine(p, EngineOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewEngine(p, EngineOptions{Workers: 1, Reference: true})
	if err != nil {
		t.Fatal(err)
	}
	fr, err := fast.AnalyzeBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := ref.AnalyzeBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	for i := range queries {
		assertResultsByteIdentical(t, fmt.Sprintf("query %d", i), fr[i], rr[i])
		if fr[i].FMMPrecise != nil || rr[i].FMMPrecise != nil {
			if !reflect.DeepEqual(fr[i].FMMPrecise, rr[i].FMMPrecise) {
				t.Fatalf("query %d: precise FMM diverged", i)
			}
			if !reflect.DeepEqual(fr[i].PenaltyPrecise.Points(), rr[i].PenaltyPrecise.Points()) {
				t.Fatalf("query %d: precise penalty distribution diverged", i)
			}
		}
	}
}
