package ipet

import (
	"context"
	"fmt"
	"math"

	"repro/internal/absint"
	"repro/internal/cache"
	"repro/internal/chmc"
	"repro/internal/par"
)

// WCETResult is the fault-free WCET and its witness path.
type WCETResult struct {
	// WCET is the fault-free worst-case execution time in cycles.
	WCET int64
	// BlockCounts is the block execution profile of the worst path.
	BlockCounts []float64
	// HitRefs, FMRefs, MissRefs count the instruction-reference
	// classifications used.
	HitRefs, FMRefs, MissRefs int
	// DataHitRefs, DataFMRefs, DataMissRefs count the data-reference
	// classifications (combined analyses only).
	DataHitRefs, DataFMRefs, DataMissRefs int
}

// WCET computes the fault-free worst-case execution time (Section II.B)
// from the IPET system, the reference lists and their classifications.
//
// Cost model (paper Section IV.A): every instruction fetch costs the
// cache hit latency; every always-miss (or not-classified, treated alike)
// reference adds the miss penalty on each execution; every first-miss
// reference adds the miss penalty once per run, accounted as a constant
// since the persistence scope is the whole program.
func WCET(sys *System, a *absint.Analyzer, classes []chmc.Class) (*WCETResult, error) {
	return WCETCombined(sys, a, classes, nil, nil)
}

// WCETCombined computes the fault-free WCET accounting both instruction
// fetches (through ia) and, when da is non-nil, data accesses (through
// da, built with absint.NewData against the data-cache configuration).
// Both reference streams are evaluated on the same worst-case path: the
// ILP objective is the sum of their block weights. Each data access
// costs the data cache's hit latency, plus its miss penalty per the
// data classification.
func WCETCombined(sys *System, ia *absint.Analyzer, icls []chmc.Class,
	da *absint.Analyzer, dcls []chmc.Class) (*WCETResult, error) {
	icfg := ia.Config()
	weights := make([]float64, len(sys.p.Blocks))
	constant := 0.0
	res := &WCETResult{}
	for _, b := range sys.p.Blocks {
		w := float64(b.NumInstr) * float64(icfg.HitLatency)
		for _, r := range ia.RefsOf(b.ID) {
			switch {
			case icls[r.Global].CountsAsMiss():
				w += float64(icfg.MissPenalty())
				res.MissRefs++
			case icls[r.Global] == chmc.FirstMiss:
				constant += float64(icfg.MissPenalty())
				res.FMRefs++
			default:
				res.HitRefs++
			}
		}
		if da != nil {
			dcfg := da.Config()
			for _, r := range da.RefsOf(b.ID) {
				w += float64(r.NumInstr) * float64(dcfg.HitLatency)
				switch {
				case dcls[r.Global].CountsAsMiss():
					w += float64(dcfg.MissPenalty())
					res.DataMissRefs++
				case dcls[r.Global] == chmc.FirstMiss:
					constant += float64(dcfg.MissPenalty())
					res.DataFMRefs++
				default:
					res.DataHitRefs++
				}
			}
		}
		weights[b.ID] = w
	}
	r, err := sys.MaximizeBlockWeights(weights, constant)
	if err != nil {
		return nil, err
	}
	// float64(math.MaxInt64) rounds up to 2^63, which is itself out of
	// range, hence the strict bound.
	w := math.Round(r.Objective)
	if !(w >= math.MinInt64 && w < math.MaxInt64) {
		return nil, fmt.Errorf("ipet: WCET of %g cycles overflows int64", r.Objective)
	}
	res.WCET = int64(w)
	res.BlockCounts = r.BlockCounts
	return res, nil
}

// FMM is the Fault Miss Map (Figure 1.a): FMM[s][f] upper-bounds the
// number of fault-induced misses of cache set s when exactly f of its
// blocks are faulty, maximized over all structurally feasible paths.
type FMM [][]int64

// Entry returns FMM[set][faulty].
func (m FMM) Entry(set, faulty int) int64 { return m[set][faulty] }

// FMMOptions selects how the all-ways-faulty column (f = W) is computed.
type FMMOptions struct {
	// Mechanism selects the reliability hardware. MechanismRW leaves the
	// f = W column zero (it can never occur and is excluded from the
	// penalty distribution by equation 3). MechanismSRB filters
	// SRB-guaranteed hits out of the f = W column. MechanismNone counts
	// the full per-instruction miss stream of faulty sets.
	Mechanism cache.Mechanism
	// SRBHit marks references guaranteed to hit in the SRB (by
	// Analyzer.ClassifySRB); required when Mechanism is MechanismSRB.
	SRBHit []bool
	// PreciseSRB switches the f = W column of each set to the precise
	// per-set SRB analysis: the set's references are classified at
	// associativity 1 (ClassifySetByAssocInto), because the SRB behaves
	// as a one-way cache private to the set when the set is the only
	// fully faulty one. The resulting FMM is only sound for fault maps
	// with at most one fully faulty set; see the mixture bound in
	// internal/core.
	PreciseSRB bool
	// ConservativeFM disables the first-miss constant credits (the
	// "-1 per run" terms), reverting to the plainly conservative
	// accounting. Exposed for the ablation study; the default (false)
	// is tighter and equally sound.
	ConservativeFM bool
	// OnlyWholeSetColumn computes only the f = W column, leaving the
	// others zero. The f < W columns are mechanism-independent, so
	// callers comparing mechanisms can compute them once and splice
	// (the core Engine's fmmArtifact does).
	OnlyWholeSetColumn bool
	// Workers bounds the number of goroutines solving per-set ILPs
	// concurrently (sets are independent), the calling goroutine
	// included. 0 means GOMAXPROCS; 1 solves every set in order on the
	// calling goroutine. The result is byte-identical for every worker
	// count: each set's row is computed from a private simplex restored
	// to the same pristine basis, so neither scheduling nor the number
	// of workers can influence any pivot path.
	Workers int
	// Ctx, when non-nil, cancels the computation: it is checked before
	// every per-set solve and between pivot batches inside each solve
	// (via the worker simplexes' cancel probes), so ComputeFMM returns
	// Ctx.Err() promptly — wrapped or bare, errors.Is-matchable — with
	// every worker goroutine finished. nil means never canceled.
	Ctx context.Context
}

// ComputeFMM builds the fault miss map for every set and fault count
// f in [0, W]. base must be the full-associativity classification
// (Analyzer.ClassifyAll).
//
// For f < W the degraded classification of the set at associativity W-f
// is compared against the baseline: a reference that degrades from
// always-hit to always-miss contributes one extra miss per execution,
// from always-hit to first-miss one extra miss per run, from first-miss
// to always-miss one extra miss per execution (the baseline's one-time
// miss is conservatively not deducted).
//
// For f = W (no usable ways) the set caches nothing, so without
// protection every instruction fetch of the set misses: a reference with
// k instructions contributes k extra misses per execution (k-1 if it was
// already an always-miss). With the SRB, the set's fetch stream is served
// by the one-block buffer: each reference costs at most one miss per
// execution, and none if it is SRB-guaranteed (Section III.B.2).
// The per-set work (a fixpoint reclassification plus up to W warm ILP
// solves) fans out through par.ForEach over FMMOptions.Workers.
// Every worker owns a clone of the system and restores it to sys's
// pristine basis before each set, so FMM[s] is a pure function of
// (sys, a, base, opt, s): the output is byte-identical whatever the
// worker count or scheduling, and sys itself is never pivoted. On
// error the lowest-numbered failing set's error is returned (the same
// one the sequential loop would have hit first), and a worker's panic
// is raised again on the caller once every worker has returned.
func ComputeFMM(sys *System, a *absint.Analyzer, base []chmc.Class, opt FMMOptions) (FMM, error) {
	fmm := make(FMM, a.Config().Sets)
	err := par.ForEach(len(fmm), opt.Workers, func() func(int) error {
		ws := sys.Clone()
		if opt.Ctx != nil {
			ws.SetCancel(opt.Ctx.Err)
		}
		sc := newFMMScratch(sys, a)
		return func(set int) (err error) {
			if opt.Ctx != nil {
				if err := opt.Ctx.Err(); err != nil {
					return err
				}
			}
			fmm[set], err = computeFMMRow(ws, sys, a, base, opt, set, sc)
			return err
		}
	})
	if err != nil {
		return nil, err
	}
	return fmm, nil
}

// fmmScratch holds the per-worker buffers of computeFMMRow: the block
// weights of the ILP objective, reused across every (set, fault count)
// pair the worker handles, and deg, where deg[A] receives a set's
// classification at associativity A for A = 1..max(W, 2)-1 (deg[0]
// stays nil). One ClassifySetByAssocInto call per set fills every
// degraded column the row needs from a single fixpoint.
type fmmScratch struct {
	weights []float64
	deg     [][]chmc.Class
}

func newFMMScratch(sys *System, a *absint.Analyzer) *fmmScratch {
	deg := make([][]chmc.Class, max(a.Config().Ways, 2))
	for assoc := 1; assoc < len(deg); assoc++ {
		deg[assoc] = make([]chmc.Class, len(a.Refs()))
	}
	return &fmmScratch{
		weights: make([]float64, len(sys.p.Blocks)),
		deg:     deg,
	}
}

// computeFMMRow computes one set's FMM row on the worker's private
// system ws, first restoring ws to pristine's basis so the row does not
// depend on what ws solved before. It touches only the set's own
// references (Analyzer.RefsOfSet) — never the full reference list —
// classifies the set once for all its degraded columns, and reuses the
// worker's scratch buffers across fault counts.
func computeFMMRow(ws, pristine *System, a *absint.Analyzer, base []chmc.Class, opt FMMOptions, set int, sc *fmmScratch) ([]int64, error) {
	if err := ws.resetFrom(pristine); err != nil {
		return nil, err
	}
	cfg := a.Config()
	row := make([]int64, cfg.Ways+1)
	refs := a.RefsOfSet(set)
	if len(refs) == 0 {
		return row, nil // the set caches nothing: no reference can suffer
	}
	precise := opt.PreciseSRB && opt.Mechanism == cache.MechanismSRB
	// Column f < W reads the classification at W-f, and the precise SRB
	// column f = W the private one-way buffer at 1: classify at 1..n-1.
	n := 0
	if !opt.OnlyWholeSetColumn {
		n = cfg.Ways
	}
	if precise {
		n = max(n, 2)
	}
	if n > 1 {
		a.ClassifySetByAssocInto(sc.deg[:n], set)
	}
	for f := 1; f <= cfg.Ways; f++ {
		if f == cfg.Ways && opt.Mechanism == cache.MechanismRW {
			// The reliable way guarantees at least one usable way;
			// this column is never reached.
			continue
		}
		if opt.OnlyWholeSetColumn && f < cfg.Ways {
			continue
		}
		weights := sc.weights
		clear(weights)
		constant := 0.0
		any := false
		var deg []chmc.Class
		switch {
		case f < cfg.Ways:
			deg = sc.deg[cfg.Ways-f]
		case precise:
			// Precise SRB: the buffer is a private 1-way cache.
			deg = sc.deg[1]
		}
		for _, r := range refs {
			var pe, pc int64
			if deg != nil {
				pe, pc = refExtra(base[r.Global], deg[r.Global])
			} else {
				pe, pc = wholeSetExtra(r, base[r.Global], opt.Mechanism, opt.SRBHit)
			}
			if opt.ConservativeFM && pc < 0 {
				pc = 0 // ablation: drop the first-miss credits
			}
			if pe != 0 {
				weights[r.BB] += float64(pe)
				any = true
			}
			constant += float64(pc)
		}
		if !any && constant <= 0 {
			continue // no reference can suffer: bound is 0
		}
		res, err := ws.MaximizeBlockWeights(weights, constant)
		if err != nil {
			return nil, err
		}
		if v := int64(math.Round(res.Objective)); v > 0 {
			row[f] = v
		}
	}
	return row, nil
}

// refExtra returns the (per-execution, per-run) extra miss counts of a
// reference whose classification degrades from base to deg, relative to
// the charges already included in the fault-free WCET: always-miss and
// not-classified are charged per execution there, first-miss once per run
// as a path-independent constant. Degrading a first-miss to always-miss
// therefore credits the constant back (perRun -1), keeping the sum
// "fault-free WCET + penalty" a sound and tight upper bound.
func refExtra(base, deg chmc.Class) (perExec, perRun int64) {
	if base.CountsAsMiss() {
		return 0, 0 // already charged a miss on every execution
	}
	switch {
	case deg.CountsAsMiss():
		if base == chmc.FirstMiss {
			return 1, -1
		}
		return 1, 0
	case deg == chmc.FirstMiss && base == chmc.AlwaysHit:
		return 0, 1
	default:
		return 0, 0
	}
}

// wholeSetExtra returns the (per-execution, per-run) extra misses of a
// reference when its whole set is faulty (f = W).
func wholeSetExtra(r absint.Ref, base chmc.Class, mech cache.Mechanism, srbHit []bool) (perExec, perRun int64) {
	if mech == cache.MechanismSRB {
		if srbHit != nil && srbHit[r.Global] {
			// Guaranteed SRB hit: "can be safely removed" (III.B.2).
			return 0, 0
		}
		// One SRB (re)load per execution at reference granularity (the
		// SRB preserves intra-block spatial locality).
		switch {
		case base.CountsAsMiss():
			return 0, 0
		case base == chmc.FirstMiss:
			return 1, -1
		default:
			return 1, 0
		}
	}
	// No protection and no usable ways: every one of the reference's k
	// instruction fetches misses on every execution.
	k := int64(r.NumInstr)
	switch {
	case base.CountsAsMiss():
		return k - 1, 0
	case base == chmc.FirstMiss:
		return k, -1
	default:
		return k, 0
	}
}
