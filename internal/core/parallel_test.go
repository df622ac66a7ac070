package core

import (
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/dist"
	"repro/internal/progen"
	"repro/internal/program"
)

// requireSameResult asserts two results are byte-identical in every
// field the parallelism touches: FMM entries, per-set distributions,
// penalty distribution and pWCET. Probabilities must match exactly
// (==), not within a tolerance — the determinism guarantee of
// EngineOptions.Workers is bit-level.
func requireSameResult(t *testing.T, label string, ref, got *Result) {
	t.Helper()
	if got.FaultFreeWCET != ref.FaultFreeWCET {
		t.Fatalf("%s: fault-free WCET %d, want %d", label, got.FaultFreeWCET, ref.FaultFreeWCET)
	}
	if got.PWCET != ref.PWCET {
		t.Fatalf("%s: pWCET %d, want %d", label, got.PWCET, ref.PWCET)
	}
	if len(got.FMM) != len(ref.FMM) {
		t.Fatalf("%s: FMM has %d sets, want %d", label, len(got.FMM), len(ref.FMM))
	}
	for s := range ref.FMM {
		for f := range ref.FMM[s] {
			if got.FMM[s][f] != ref.FMM[s][f] {
				t.Fatalf("%s: FMM[%d][%d] = %d, want %d", label, s, f, got.FMM[s][f], ref.FMM[s][f])
			}
		}
	}
	requireSameDist(t, label+": Penalty", ref.Penalty, got.Penalty)
	if len(got.PerSet) != len(ref.PerSet) {
		t.Fatalf("%s: %d per-set distributions, want %d", label, len(got.PerSet), len(ref.PerSet))
	}
	for s := range ref.PerSet {
		requireSameDist(t, label+": PerSet", ref.PerSet[s], got.PerSet[s])
	}
}

func requireSameDist(t *testing.T, label string, ref, got *dist.Dist) {
	t.Helper()
	if got.Len() != ref.Len() {
		t.Fatalf("%s: support size %d, want %d", label, got.Len(), ref.Len())
	}
	rp := ref.Points()
	for i, p := range got.Points() {
		if p != rp[i] {
			t.Fatalf("%s: atom %d is %+v, want %+v (must be byte-identical)", label, i, p, rp[i])
		}
	}
}

// TestAnalyzeWorkersEquivalence: Analyze with Workers > 1 produces
// results identical to Workers = 1 across all mechanisms (run with
// -race this also exercises the pool for data races).
func TestAnalyzeWorkersEquivalence(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		p := progen.Random(rand.New(rand.NewSource(700+seed)), progen.DefaultParams())
		for _, mech := range []cache.Mechanism{cache.MechanismNone, cache.MechanismRW, cache.MechanismSRB} {
			q := testQuery(mech)
			ref, err := Analyze(p, EngineOptions{Workers: 1}, q)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{0, 2, 4, 13} {
				got, err := Analyze(p, EngineOptions{Workers: workers}, q)
				if err != nil {
					t.Fatal(err)
				}
				requireSameResult(t, mech.String(), ref, got)
			}
		}
	}
}

// TestAnalyzeAllWorkersEquivalence covers the shared-computation path,
// whose three per-mechanism distribution builds also run concurrently.
func TestAnalyzeAllWorkersEquivalence(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		p := progen.Random(rand.New(rand.NewSource(800+seed)), progen.DefaultParams())
		q := testQuery(cache.MechanismNone)
		ref, err := AnalyzeAll(p, EngineOptions{Workers: 1}, q)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 2, 4} {
			got, err := AnalyzeAll(p, EngineOptions{Workers: workers}, q)
			if err != nil {
				t.Fatal(err)
			}
			for _, mech := range []cache.Mechanism{cache.MechanismNone, cache.MechanismRW, cache.MechanismSRB} {
				requireSameResult(t, mech.String(), ref[mech], got[mech])
			}
		}
	}
}

// build256SetProgram returns a program whose code span covers all sets
// of a 256-set cache, so the parallel FMM really fans 256 per-set
// solves out.
func build256SetProgram(t *testing.T) *program.Program {
	t.Helper()
	b := program.New("wide256")
	b.Func("main").
		Ops(200).
		Loop(30, func(l *program.Body) {
			l.Ops(300)
			l.If(func(then *program.Body) { then.Ops(250) },
				func(els *program.Body) { els.Ops(180) })
		}).
		Loop(12, func(l *program.Body) { l.Ops(320) })
	return b.MustBuild()
}

// TestWorkersEquivalence256Sets is the scale case of the issue: a
// 256-set configuration where the parallel per-set stages hurt most.
// Workers = 1 and Workers = 4 must agree byte for byte, for Analyze
// and AnalyzeAll alike.
func TestWorkersEquivalence256Sets(t *testing.T) {
	if testing.Short() {
		t.Skip("256-set equivalence sweep")
	}
	cfg := cache.Config{Sets: 256, Ways: 2, BlockBytes: 8, HitLatency: 1, MemLatency: 100}
	p := build256SetProgram(t)

	q := Query{Cache: cfg, Pfail: 1e-3, Mechanism: cache.MechanismSRB}
	ref, err := Analyze(p, EngineOptions{Workers: 1}, q)
	if err != nil {
		t.Fatal(err)
	}
	touched := 0
	for s := range ref.FMM {
		for _, v := range ref.FMM[s] {
			if v > 0 {
				touched++
				break
			}
		}
	}
	if touched < 200 {
		t.Fatalf("only %d of 256 sets carry misses; the scale case is not exercising the pool", touched)
	}
	got, err := Analyze(p, EngineOptions{Workers: 4}, q)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "srb-256", ref, got)

	aq := Query{Cache: cfg, Pfail: 1e-3}
	refAll, err := AnalyzeAll(p, EngineOptions{Workers: 1}, aq)
	if err != nil {
		t.Fatal(err)
	}
	gotAll, err := AnalyzeAll(p, EngineOptions{Workers: 4}, aq)
	if err != nil {
		t.Fatal(err)
	}
	for _, mech := range []cache.Mechanism{cache.MechanismNone, cache.MechanismRW, cache.MechanismSRB} {
		requireSameResult(t, "all-256-"+mech.String(), refAll[mech], gotAll[mech])
	}
}

// TestOptionsValidation: MaxSupport below 2 (except the 0 default) and
// negative Workers are rejected up front by both entry points.
func TestOptionsValidation(t *testing.T) {
	p := buildLoop(t)
	for _, bad := range []int{1, -1, -4096} {
		opt := testQuery(cache.MechanismNone)
		opt.MaxSupport = bad
		if _, err := Analyze(p, EngineOptions{}, opt); err == nil {
			t.Errorf("Analyze accepted MaxSupport = %d", bad)
		}
		if _, err := AnalyzeAll(p, EngineOptions{}, opt); err == nil {
			t.Errorf("AnalyzeAll accepted MaxSupport = %d", bad)
		}
	}
	neg := EngineOptions{Workers: -1}
	if _, err := Analyze(p, neg, testQuery(cache.MechanismNone)); err == nil {
		t.Error("Analyze accepted Workers = -1")
	}
	if _, err := AnalyzeAll(p, neg, testQuery(cache.MechanismNone)); err == nil {
		t.Error("AnalyzeAll accepted Workers = -1")
	}
	// MaxSupport = 2 is the smallest valid cap and must be accepted.
	opt := testQuery(cache.MechanismNone)
	opt.MaxSupport = 2
	if _, err := Analyze(p, EngineOptions{}, opt); err != nil {
		t.Errorf("Analyze rejected MaxSupport = 2: %v", err)
	}
}
