package ipet

// Transient-fault support: per-set bounds on the number of accesses an
// SEU can turn into an extra miss. The transient model of
// internal/fault charges at most one extra miss per execution of a
// reference whose fault-free classification hits (always-hit or
// first-miss): an access that misses anyway is already charged its
// penalty, so an upset striking its line adds nothing. The per-set
// count of such vulnerable reference executions, maximized over all
// structurally feasible paths by the same ILP machinery as the FMM,
// caps the binomial extra-miss distribution of each set.

import (
	"context"
	"math"

	"repro/internal/absint"
	"repro/internal/chmc"
	"repro/internal/par"
)

// HitBounds[s] upper-bounds the number of hit-classified reference
// executions of cache set s on any structurally feasible path — the
// accesses a transient upset can turn into extra misses. The bound
// uses the fault-free classification, which is an upper bound on the
// vulnerable accesses under ANY permanent fault map: permanent faults
// only ever degrade classifications toward miss, and degraded-to-miss
// accesses are no longer vulnerable.
type HitBounds []int64

// Total sums the per-set bounds: the program-wide cap on transient
// extra misses.
func (h HitBounds) Total() int64 {
	var t int64
	for _, v := range h {
		t += v
	}
	return t
}

// MemBytes estimates the resident heap bytes of the bounds vector —
// the eviction-cost estimate for the engine's bounded artifact memory.
func (h HitBounds) MemBytes() int64 {
	const wordBytes = 8
	return int64(cap(h)) * wordBytes
}

// HitBoundOptions configures ComputeHitBounds.
type HitBoundOptions struct {
	// Workers bounds the goroutines solving per-set ILPs concurrently
	// (sets are independent), the calling goroutine included. 0 means
	// GOMAXPROCS; 1 solves every set in order on the calling
	// goroutine. Like ComputeFMM, the result is byte-identical for
	// every worker count: each set's bound is solved on a private
	// simplex restored to the same pristine basis.
	Workers int
	// Ctx, when non-nil, cancels the computation under the same
	// contract as FMMOptions.Ctx: checked before every per-set solve
	// and between pivot batches inside each solve.
	Ctx context.Context
}

// ComputeHitBounds bounds, for every cache set, the number of
// vulnerable (hit-classified) reference executions over all
// structurally feasible paths: one ILP per set maximizing the count of
// executions of the set's always-hit and first-miss references. base
// must be the full-associativity classification (Analyzer.ClassifyAll).
// The per-set solves fan out through par.ForEach exactly like
// ComputeFMM: on error the lowest-numbered failing set's error is
// returned, and a worker's panic is raised again on the caller.
func ComputeHitBounds(sys *System, a *absint.Analyzer, base []chmc.Class, opt HitBoundOptions) (HitBounds, error) {
	hb := make(HitBounds, a.Config().Sets)
	err := par.ForEach(len(hb), opt.Workers, func() func(int) error {
		ws := sys.Clone()
		if opt.Ctx != nil {
			ws.SetCancel(opt.Ctx.Err)
		}
		weights := make([]float64, len(sys.p.Blocks))
		return func(set int) (err error) {
			if opt.Ctx != nil {
				if err := opt.Ctx.Err(); err != nil {
					return err
				}
			}
			hb[set], err = computeHitBound(ws, sys, a, base, set, weights)
			return err
		}
	})
	if err != nil {
		return nil, err
	}
	return hb, nil
}

// computeHitBound solves one set's vulnerable-access ILP on the
// worker's private system ws, restored to pristine's basis first so
// the bound is a pure function of (sys, a, base, set).
func computeHitBound(ws, pristine *System, a *absint.Analyzer, base []chmc.Class, set int, weights []float64) (int64, error) {
	refs := a.RefsOfSet(set)
	clear(weights)
	any := false
	for _, r := range refs {
		if base[r.Global].CountsAsMiss() {
			continue // already charged a miss per execution; not vulnerable
		}
		weights[r.BB]++
		any = true
	}
	if !any {
		return 0, nil // no reference of the set can suffer an extra miss
	}
	if err := ws.resetFrom(pristine); err != nil {
		return 0, err
	}
	res, err := ws.MaximizeBlockWeights(weights, 0)
	if err != nil {
		return 0, err
	}
	if v := int64(math.Round(res.Objective)); v > 0 {
		return v, nil
	}
	return 0, nil
}
