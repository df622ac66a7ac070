package core

import (
	"fmt"
	"testing"

	"repro/internal/cache"
)

// evictionQueries is a mixed workload touching several cache
// geometries and all mechanisms (including SRB, which adds the SRB
// classification artifact), so that a byte budget actually has
// distinct artifacts to churn through.
func evictionQueries() []Query {
	geoms := []cache.Config{
		{Sets: 8, Ways: 2, BlockBytes: 8, HitLatency: 1, MemLatency: 10},
		{Sets: 4, Ways: 4, BlockBytes: 8, HitLatency: 1, MemLatency: 10},
		{Sets: 4, Ways: 2, BlockBytes: 16, HitLatency: 1, MemLatency: 10},
	}
	var queries []Query
	for _, g := range geoms {
		for _, mech := range []cache.Mechanism{cache.MechanismNone, cache.MechanismRW, cache.MechanismSRB} {
			queries = append(queries, Query{Cache: g, Pfail: 1e-3, Mechanism: mech})
		}
	}
	return queries
}

// TestEngineEvictionByteIdentical is the acceptance criterion of the
// bounded-memory refactor: with MaxArtifactBytes set small enough to
// force eviction of every artifact class, a repeated sweep returns
// results byte-identical to the unbounded engine — eviction trades
// recomputation (visible through the Hook counters) for memory,
// never results.
func TestEngineEvictionByteIdentical(t *testing.T) {
	p := buildLoop(t)
	queries := evictionQueries()

	unbounded, err := NewEngine(p, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := unbounded.AnalyzeBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	if ms := unbounded.MemStats(); ms.Evictions != 0 || ms.ArtifactBytes == 0 {
		t.Fatalf("unbounded engine: evictions %d (want 0), resident %d (want > 0)", ms.Evictions, ms.ArtifactBytes)
	}

	h := &countingHook{}
	// A 1-byte budget is below the cost of every artifact: everything is
	// evicted as soon as the pinning query releases it.
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

	ms := bounded.MemStats()
	if ms.Evictions == 0 {
		t.Error("1-byte budget over a repeated multi-geometry sweep evicted nothing")
	}
	if ms.ArtifactBytes != 0 {
		t.Errorf("resident %d bytes after all queries released under a 1-byte budget, want 0", ms.ArtifactBytes)
	}
	// The second round cannot have found any memoized artifact: the
	// counting hook must show every expensive stage recomputed, i.e.
	// at least 2 computations per (artifact, cache) key.
	recomputed := false
	for key, n := range h.snapshot() {
		if n >= 2 {
			recomputed = true
		}
		_ = key
	}
	if !recomputed {
		t.Errorf("no artifact was recomputed across rounds under eviction: %v", h.snapshot())
	}
	requireAccounting(t, bounded)
}

// TestEngineEvictionUnderConcurrentBatch churns a tiny budget under a
// parallel batch (exercising pin/evict races under -race) and checks
// byte-identity against the unbounded engine.
func TestEngineEvictionUnderConcurrentBatch(t *testing.T) {
	p := buildLoop(t)
	queries := evictionQueries()

	unbounded, err := NewEngine(p, EngineOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := unbounded.AnalyzeBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{1, 64 << 10} {
		bounded, err := NewEngine(p, EngineOptions{Workers: 4, MaxArtifactBytes: budget})
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ {
			got, err := bounded.AnalyzeBatch(queries)
			if err != nil {
				t.Fatal(err)
			}
			for i := range queries {
				requireDeepEqualResult(t, fmt.Sprintf("budget %d round %d query %d", budget, round, i), ref[i], got[i])
			}
		}
		requireAccounting(t, bounded)
	}
}

// TestEngineBoundedResidencyAcrossGeometries serves many distinct cache
// geometries through one engine under a budget sized for only a few of
// them, asserting the resident artifact estimate stays under the budget
// after every query — bounded, not monotonically growing.
func TestEngineBoundedResidencyAcrossGeometries(t *testing.T) {
	p := buildLoop(t)

	// Size the budget from a real single-geometry working set so the
	// test is robust to cost-model changes: room for ~3 geometries.
	probe, err := NewEngine(p, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := probe.Analyze(Query{Pfail: 1e-4, Mechanism: cache.MechanismSRB}); err != nil {
		t.Fatal(err)
	}
	budget := 3 * probe.MemStats().ArtifactBytes
	if budget <= 0 {
		t.Fatal("probe engine reported zero resident artifact bytes")
	}

	e, err := NewEngine(p, EngineOptions{MaxArtifactBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	var last cache.Config
	for _, sets := range []int{4, 8, 16, 32} {
		for _, ways := range []int{1, 2, 4} {
			for _, block := range []int{8, 16} {
				last = cache.Config{Sets: sets, Ways: ways, BlockBytes: block, HitLatency: 1, MemLatency: 10}
				if _, err := e.Analyze(Query{Cache: last, Pfail: 1e-4, Mechanism: cache.MechanismSRB}); err != nil {
					t.Fatal(err)
				}
				count++
				if ms := e.MemStats(); ms.ArtifactBytes > budget {
					t.Fatalf("after %d geometries: resident %d exceeds budget %d", count, ms.ArtifactBytes, budget)
				}
			}
		}
	}
	if count < 20 {
		t.Fatalf("test covered only %d distinct geometries, want >= 20", count)
	}
	ms := e.MemStats()
	if ms.Evictions == 0 {
		t.Error("a budget sized for ~3 geometries never evicted across 24")
	}
	if ms.Misses == 0 {
		t.Errorf("24 distinct geometries produced no memo misses: %+v", ms)
	}
	// The most recent geometry is still resident: re-querying it must
	// hit the memo tables, not recompute.
	if _, err := e.Analyze(Query{Cache: last, Pfail: 1e-4, Mechanism: cache.MechanismSRB}); err != nil {
		t.Fatal(err)
	}
	after := e.MemStats()
	if after.Hits <= ms.Hits {
		t.Errorf("re-query of the resident geometry produced no memo hits: %+v -> %+v", ms, after)
	}
	requireAccounting(t, e)
}

// TestEngineMemStatsAccounting sanity-checks the unbounded engine's
// accounting: resident bytes grow with distinct artifacts, repeated
// queries hit the memo table, and nothing is ever evicted.
func TestEngineMemStatsAccounting(t *testing.T) {
	p := buildLoop(t)
	e, err := NewEngine(p, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Analyze(Query{Pfail: 1e-4, Mechanism: cache.MechanismNone}); err != nil {
		t.Fatal(err)
	}
	first := e.MemStats()
	if first.ArtifactBytes <= 0 || first.Artifacts == 0 {
		t.Fatalf("no resident artifacts after a query: %+v", first)
	}
	if _, err := e.Analyze(Query{Pfail: 1e-3, Mechanism: cache.MechanismNone}); err != nil {
		t.Fatal(err)
	}
	second := e.MemStats()
	if second.ArtifactBytes != first.ArtifactBytes {
		t.Errorf("a same-configuration query changed residency: %d -> %d", first.ArtifactBytes, second.ArtifactBytes)
	}
	if second.Hits <= first.Hits {
		t.Errorf("repeated query produced no memo hits: %+v -> %+v", first, second)
	}
	if second.Evictions != 0 || second.EvictedBytes != 0 {
		t.Errorf("unbounded engine evicted: %+v", second)
	}
	requireAccounting(t, e)
}
