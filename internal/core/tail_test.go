package core

// Tests of the coarsening-strategy plumbing: the strategy reaches the
// distribution stage, never aliases memoized artifacts, and batch
// results stay byte-identical to one-shot runs under both strategies.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/dist"
	"repro/internal/progen"
)

func TestCoarsenStrategyValidation(t *testing.T) {
	p := buildLoop(t)
	if _, err := Analyze(p, EngineOptions{}, Query{Pfail: 1e-4, Coarsen: dist.CoarsenStrategy(42)}); err == nil {
		t.Error("unknown coarsening strategy accepted by Analyze")
	}
	e, err := NewEngine(p, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Analyze(Query{Pfail: 1e-4, Coarsen: dist.CoarsenStrategy(42)}); err == nil {
		t.Error("unknown coarsening strategy accepted by Engine.Analyze")
	}
	r, err := Analyze(p, EngineOptions{}, Query{Pfail: 1e-4, Coarsen: dist.CoarsenKeepHeaviest})
	if err != nil {
		t.Fatal(err)
	}
	if r.Query.Coarsen != dist.CoarsenKeepHeaviest {
		t.Errorf("Result.Query does not echo the strategy: %v", r.Query.Coarsen)
	}
}

// bindingMaxSupport is a support cap small enough to bind on the test
// programs (each test asserts that it does), so the two strategies
// actually diverge.
const bindingMaxSupport = 8

// TestEngineCoarsenStrategyNoAliasing: two queries differing only in
// the coarsening strategy share every memoized artifact (the
// classification, WCET and FMM artifacts are strategy-independent:
// fault-miss counts involve no convolution) and still produce distinct
// penalty distributions — a strategy change can never be served a
// stale distribution from the other strategy's run, in either order.
func TestEngineCoarsenStrategyNoAliasing(t *testing.T) {
	p := progen.Random(rand.New(rand.NewSource(8)), progen.DefaultParams())
	// Construction check: with an unbinding cap the penalty support
	// must exceed bindingMaxSupport, otherwise the strategies cannot
	// diverge and this test would vacuously pass.
	wide, err := Analyze(p, EngineOptions{}, Query{Pfail: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if wide.Penalty.Len() <= bindingMaxSupport {
		t.Fatalf("test construction: penalty support %d does not exceed the binding cap %d",
			wide.Penalty.Len(), bindingMaxSupport)
	}

	var mu sync.Mutex
	counts := map[Artifact]int{}
	e, err := NewEngine(p, EngineOptions{Hook: func(ev ArtifactEvent) {
		mu.Lock()
		counts[ev.Artifact]++
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Pfail: 1e-3, MaxSupport: bindingMaxSupport}
	qLE, qKH := q, q
	qLE.Coarsen, qKH.Coarsen = dist.CoarsenLeastError, dist.CoarsenKeepHeaviest
	le1, err := e.Analyze(qLE)
	if err != nil {
		t.Fatal(err)
	}
	kh, err := e.Analyze(qKH)
	if err != nil {
		t.Fatal(err)
	}
	le2, err := e.Analyze(qLE) // after the other strategy ran: no aliasing back
	if err != nil {
		t.Fatal(err)
	}

	// All three queries hit the same memoized artifacts exactly once.
	for a, want := range map[Artifact]int{
		ArtifactClassification: 1, ArtifactWCET: 1, ArtifactFMMCore: 1, ArtifactFMMColumn: 1,
	} {
		if counts[a] != want {
			t.Errorf("artifact %v computed %d times, want %d (strategy must not be part of these keys)",
				a, counts[a], want)
		}
	}
	// The shared FMM is identical; the distributions are not.
	for s := range le1.FMM {
		for f := range le1.FMM[s] {
			if le1.FMM[s][f] != kh.FMM[s][f] {
				t.Fatalf("FMM[%d][%d] differs between strategies: %d vs %d",
					s, f, le1.FMM[s][f], kh.FMM[s][f])
			}
		}
	}
	samePenalty := le1.Penalty.Len() == kh.Penalty.Len()
	if samePenalty {
		for i, pt := range le1.Penalty.Points() {
			if kh.Penalty.Points()[i] != pt {
				samePenalty = false
				break
			}
		}
	}
	if samePenalty {
		t.Error("the two strategies produced identical penalties under a binding cap — aliasing or a dead strategy switch")
	}
	requireDeepEqualResult(t, "least-error re-query", le1, le2)

	// Both remain sound upper bounds of the unbinding-cap distribution.
	for _, r := range []*Result{le1, kh} {
		if !wide.Penalty.DominatedBy(r.Penalty, 1e-12) {
			t.Errorf("%v penalty does not dominate the unbinding-cap penalty", r.Query.Coarsen)
		}
		if r.PWCET < wide.PWCET {
			t.Errorf("%v pWCET %d below the unbinding-cap pWCET %d", r.Query.Coarsen, r.PWCET, wide.PWCET)
		}
	}
}

// TestEngineBatchByteIdenticalUnderStrategies is the acceptance
// criterion: engine batch results stay byte-identical to independent
// one-shot Analyze runs under BOTH coarsening strategies, with a cap
// small enough to bind.
func TestEngineBatchByteIdenticalUnderStrategies(t *testing.T) {
	p := progen.Random(rand.New(rand.NewSource(8)), progen.DefaultParams())
	for _, strategy := range []dist.CoarsenStrategy{dist.CoarsenLeastError, dist.CoarsenKeepHeaviest} {
		e, err := NewEngine(p, EngineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var queries []Query
		for _, pf := range []float64{1e-6, 1e-4, 1e-3} {
			for _, mech := range []cache.Mechanism{cache.MechanismNone, cache.MechanismRW, cache.MechanismSRB} {
				queries = append(queries, Query{
					Pfail: pf, Mechanism: mech, MaxSupport: bindingMaxSupport, Coarsen: strategy,
				})
			}
		}
		batch, err := e.AnalyzeBatch(queries)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range queries {
			solo, err := Analyze(p, EngineOptions{}, q)
			if err != nil {
				t.Fatal(err)
			}
			requireDeepEqualResult(t, fmt.Sprintf("%v %v pfail=%g", strategy, q.Mechanism, q.Pfail), solo, batch[i])
		}
	}
}

// TestCoarsenStrategiesAgreeWhenCapDoesNotBind: with the default
// support cap (which these programs never reach) the strategy is
// inert — results are byte-identical across strategies, i.e. identical
// to the pre-strategy behavior whenever the cap does not bind.
func TestCoarsenStrategiesAgreeWhenCapDoesNotBind(t *testing.T) {
	p := progen.Random(rand.New(rand.NewSource(8)), progen.DefaultParams())
	for _, mech := range []cache.Mechanism{cache.MechanismNone, cache.MechanismSRB} {
		le, err := Analyze(p, EngineOptions{}, Query{Pfail: 1e-3, Mechanism: mech, Coarsen: dist.CoarsenLeastError})
		if err != nil {
			t.Fatal(err)
		}
		if le.Penalty.Len() >= DefaultMaxSupport {
			t.Fatalf("test construction: penalty support %d reaches the default cap", le.Penalty.Len())
		}
		kh, err := Analyze(p, EngineOptions{}, Query{Pfail: 1e-3, Mechanism: mech, Coarsen: dist.CoarsenKeepHeaviest})
		if err != nil {
			t.Fatal(err)
		}
		kh.Query.Coarsen = le.Query.Coarsen // the echoed option is the one intended difference
		requireDeepEqualResult(t, fmt.Sprintf("unbinding cap %v", mech), le, kh)
	}
}
