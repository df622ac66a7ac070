package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/absint"
	"repro/internal/cache"
	"repro/internal/chmc"
	"repro/internal/malardalen"
	"repro/internal/progen"
	"repro/internal/program"
)

func TestProbMultiFullSets(t *testing.T) {
	// q = pbf^W; with pbf = 0.0127, W = 4, S = 16: q ~ 2.6e-8 and
	// P(E>=2) ~ C(16,2) q^2 ~ 8.2e-14.
	pbf := 0.012719
	got := probMultiFullSets(pbf, 16, 4)
	q := math.Pow(pbf, 4)
	approx := 120 * q * q // C(16,2) q^2 leading term
	if got < approx/2 || got > approx*2 {
		t.Errorf("P(E>=2) = %g, want ~%g", got, approx)
	}
	if p := probMultiFullSets(0, 16, 4); p != 0 {
		t.Errorf("P(E>=2) at pbf=0 = %g, want 0", p)
	}
	if p := probMultiFullSets(1, 16, 4); math.Abs(p-1) > 1e-12 {
		t.Errorf("P(E>=2) at pbf=1 = %g, want 1", p)
	}
}

func TestPerSetSRBSupersetOfGlobal(t *testing.T) {
	// The precise (per-set) SRB classification must be at least as good
	// as the conservative global analysis on every reference: a
	// conservative guaranteed hit must classify AlwaysHit in the private
	// 1-way view (assuming fewer evictions can only help).
	cfg := cache.Config{Sets: 4, Ways: 2, BlockBytes: 8, HitLatency: 1, MemLatency: 10}
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := progen.Random(rng, progen.DefaultParams())
		a := absint.New(p, cfg)
		global := a.ClassifySRB()
		for set := 0; set < cfg.Sets; set++ {
			perSet := make([]chmc.Class, len(a.Refs()))
			a.ClassifySetByAssocInto([][]chmc.Class{1: perSet}, set)
			for _, r := range a.Refs() {
				if r.Set != set {
					continue
				}
				if global[r.Global] && perSet[r.Global] != chmc.AlwaysHit {
					t.Fatalf("seed %d: ref %d global SRB-hit but per-set %v",
						seed, r.Global, perSet[r.Global])
				}
			}
		}
	}
}

func TestPerSetSRBSeesTemporalLocality(t *testing.T) {
	// A loop whose footprint is at most one block per set: each looping
	// set holds exactly one block, revisited every iteration. The
	// conservative SRB analysis sees no guaranteed hits (any reference
	// may reload the buffer); the private per-set view classifies the
	// repeated reference first-miss (one reload, then resident).
	cfg := cache.Config{Sets: 4, Ways: 2, BlockBytes: 8, HitLatency: 1, MemLatency: 10}
	b := program.New("temporal")
	b.Func("main").Loop(10, func(l *program.Body) { l.Ops(3) })
	p := b.MustBuild()
	a := absint.New(p, cfg)
	global := a.ClassifySRB()

	foundImprovement := false
	for set := 0; set < cfg.Sets; set++ {
		perSet := make([]chmc.Class, len(a.Refs()))
		a.ClassifySetByAssocInto([][]chmc.Class{1: perSet}, set)
		for _, r := range a.Refs() {
			if r.Set != set {
				continue
			}
			better := perSet[r.Global] == chmc.AlwaysHit || perSet[r.Global] == chmc.FirstMiss
			if better && !global[r.Global] {
				foundImprovement = true
			}
		}
	}
	if !foundImprovement {
		t.Error("per-set SRB analysis found no additional guaranteed hits on a looping set")
	}
}

func TestPreciseSRBAtRelaxedTarget(t *testing.T) {
	// At a target above P(E>=2) the mixture bound may improve on the
	// conservative pWCET; it must never be worse, and at the paper's
	// 1e-15 it must coincide with the conservative bound (the mixture's
	// additive term dominates).
	for _, name := range []string{"bs", "fibcall", "matmult", "crc"} {
		p := malardalen.MustGet(name)
		cons, err := Analyze(p, EngineOptions{}, Query{Pfail: 1e-4, Mechanism: cache.MechanismSRB})
		if err != nil {
			t.Fatal(err)
		}
		prec, err := Analyze(p, EngineOptions{}, Query{Pfail: 1e-4, Mechanism: cache.MechanismSRB, PreciseSRB: true})
		if err != nil {
			t.Fatal(err)
		}
		if prec.PenaltyPrecise == nil {
			t.Fatal("precise distribution missing")
		}
		// Precise penalty is dominated by the conservative one.
		if !prec.PenaltyPrecise.DominatedBy(prec.Penalty, 1e-9) {
			t.Errorf("%s: precise penalty not dominated by conservative", name)
		}
		for _, target := range []float64{1e-6, 1e-9, 1e-12, 1e-15} {
			c := cons.PWCETAt(target)
			m := prec.PWCETAt(target)
			if m > c {
				t.Errorf("%s at %g: mixture pWCET %d worse than conservative %d", name, target, m, c)
			}
		}
		// At 1e-15 (< P(E>=2) ~ 8e-14) the mixture cannot beat the
		// conservative bound.
		if got, want := prec.PWCETAt(1e-15), cons.PWCETAt(1e-15); got != want {
			t.Errorf("%s: mixture at 1e-15 = %d, conservative = %d (must coincide)", name, got, want)
		}
	}
}

func TestPreciseSRBImprovesSomewhere(t *testing.T) {
	// The extension must actually buy something at targets above
	// P(E>=2) for at least one benchmark with temporal locality.
	improved := false
	for _, name := range []string{"fibcall", "bs", "insertsort", "matmult"} {
		p := malardalen.MustGet(name)
		cons, err := Analyze(p, EngineOptions{}, Query{Pfail: 1e-4, Mechanism: cache.MechanismSRB})
		if err != nil {
			t.Fatal(err)
		}
		prec, err := Analyze(p, EngineOptions{}, Query{Pfail: 1e-4, Mechanism: cache.MechanismSRB, PreciseSRB: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, target := range []float64{1e-6, 1e-9, 1e-12} {
			if prec.PWCETAt(target) < cons.PWCETAt(target) {
				improved = true
			}
		}
	}
	if !improved {
		t.Error("precise SRB never improved the pWCET at relaxed targets")
	}
}

func TestPreciseSRBIgnoredForOtherMechanisms(t *testing.T) {
	p := malardalen.MustGet("bs")
	r, err := Analyze(p, EngineOptions{}, Query{Pfail: 1e-4, Mechanism: cache.MechanismRW, PreciseSRB: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.PenaltyPrecise != nil {
		t.Error("precise SRB distribution built for a non-SRB mechanism")
	}
}

// TestAttachPreciseSRBHonorsCancellation: the precise-SRB reduction
// consults the query's cancellation probe like the conservative one, so
// a canceled query stops in the precise tree too and attaches nothing —
// on the optimized and the reference executor alike.
func TestAttachPreciseSRBHonorsCancellation(t *testing.T) {
	p := malardalen.MustGet("bs")
	for _, exact := range []bool{false, true} {
		full, err := Analyze(p, EngineOptions{ExactConvolve: exact}, Query{Pfail: 1e-4, Mechanism: cache.MechanismSRB, PreciseSRB: true})
		if err != nil {
			t.Fatal(err)
		}
		r := &Result{Query: full.Query, Model: full.Model}
		err = r.attachPreciseSRB(full.FMMPrecise, 4, exact, func() error { return context.Canceled })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("exact=%v: attachPreciseSRB under a canceled probe = %v, want context.Canceled", exact, err)
		}
		if r.PenaltyPrecise != nil {
			t.Fatalf("exact=%v: canceled precise reduction still attached a distribution", exact)
		}
	}
}
