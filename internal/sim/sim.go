// Package sim validates the static pWCET analysis against concrete
// execution: it samples fault maps from the paper's fault model, runs the
// cycle-accurate cache simulator over program paths, and checks the
// soundness obligations of the method:
//
//  1. per fault map, the measured execution time never exceeds the
//     fault-free WCET plus the sum of the per-set FMM penalties for the
//     realized fault counts (the additive bound behind Section II.C);
//  2. across sampled fault maps, the empirical exceedance of any
//     threshold never exceeds the analytical complementary CDF beyond
//     statistical noise.
//
// The validator is used by the test suite and exposed through
// cmd/pwcet -validate so users can audit any configuration.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/program"
)

// Report summarizes a Monte-Carlo validation run.
type Report struct {
	// Samples is the number of fault maps drawn.
	Samples int
	// PathsPerSample is the number of random paths simulated per map.
	PathsPerSample int
	// MaxTime is the largest simulated execution time observed.
	MaxTime int64
	// MaxBound is the largest per-fault-map analytical bound observed.
	MaxBound int64
	// BoundViolations counts simulations exceeding their per-map bound
	// (must be zero for a sound analysis).
	BoundViolations int
	// CCDFViolations counts thresholds where the empirical exceedance
	// exceeded the analytical CCDF beyond the confidence slack (must be
	// zero).
	CCDFViolations int
	// WorstGapRatio is max over simulations of time/bound (<= 1).
	WorstGapRatio float64
	// MeanTime is the average simulated time (for tightness reporting).
	MeanTime float64
}

// PenaltyBound returns the analytical penalty bound (in cycles) of one
// concrete fault map under the result's mechanism: the sum over sets of
// the FMM entry for the realized (mechanism-adjusted) fault count. When
// the precise SRB analysis is available and the map has at most one
// entirely faulty set (its soundness precondition), the tighter precise
// FMM is used.
func PenaltyBound(res *core.Result, fm cache.FaultMap) int64 {
	cfg := res.Query.Cache
	fmm := res.FMM
	if res.FMMPrecise != nil {
		full := 0
		for s := 0; s < cfg.Sets; s++ {
			if fm.NumFaulty(s) == cfg.Ways {
				full++
			}
		}
		if full <= 1 {
			fmm = res.FMMPrecise
		}
	}
	var bound int64
	for s := 0; s < cfg.Sets; s++ {
		f := fm.NumFaulty(s)
		if res.Query.Mechanism == cache.MechanismRW && fm[s][0] {
			f-- // the reliable way masks its own fault (Section III.B.1)
		}
		bound += fmm[s][f] * cfg.MissPenalty()
	}
	return bound
}

// DataPenaltyBound returns the analytical data-cache penalty bound of a
// concrete data-cache fault map (analyses with Query.DataCache only).
func DataPenaltyBound(res *core.Result, dfm cache.FaultMap) int64 {
	dcfg := *res.Query.DataCache
	var bound int64
	for s := 0; s < dcfg.Sets; s++ {
		f := dfm.NumFaulty(s)
		if res.Query.Mechanism == cache.MechanismRW && dfm[s][0] {
			f--
		}
		bound += res.DataFMM[s][f] * dcfg.MissPenalty()
	}
	return bound
}

// Validate samples fault maps and random paths and checks the soundness
// obligations. It returns a report; a sound analysis yields
// BoundViolations == 0 and CCDFViolations == 0. Analyses carrying a data
// cache are simulated with both caches against independently sampled
// fault maps.
func Validate(p *program.Program, res *core.Result, samples, pathsPerSample int, seed int64) (*Report, error) {
	if samples < 1 || pathsPerSample < 1 {
		return nil, fmt.Errorf("sim: need at least one sample and one path")
	}
	cfg := res.Query.Cache
	rng := rand.New(rand.NewSource(seed))
	rep := &Report{Samples: samples, PathsPerSample: pathsPerSample}

	var penalties []int64 // realized per-map penalty bound, for CCDF check
	var totalTime float64
	var n int
	for i := 0; i < samples; i++ {
		fm := res.Model.SampleFaultMap(rng, cfg)
		bound := res.FaultFreeWCET + PenaltyBound(res, fm)
		var dfm cache.FaultMap
		if res.DataFMM != nil {
			dfm = res.DataModel.SampleFaultMap(rng, *res.Query.DataCache)
			bound += DataPenaltyBound(res, dfm)
		}
		penalties = append(penalties, bound-res.FaultFreeWCET)
		if bound > rep.MaxBound {
			rep.MaxBound = bound
		}
		for j := 0; j < pathsPerSample; j++ {
			var time int64
			if res.DataFMM != nil {
				accesses, err := p.TraceAccesses(program.RandomChooser(rng), 50_000_000)
				if err != nil {
					return nil, err
				}
				isim := cache.NewSim(cfg, res.Query.Mechanism, fm)
				dsim := cache.NewSim(*res.Query.DataCache, res.Query.Mechanism, dfm)
				for _, acc := range accesses {
					if acc.Data {
						dsim.Access(acc.Addr)
					} else {
						isim.Access(acc.Addr)
					}
				}
				time = isim.Time + dsim.Time
			} else {
				tr, err := p.Trace(program.RandomChooser(rng), 50_000_000)
				if err != nil {
					return nil, err
				}
				s := cache.NewSim(cfg, res.Query.Mechanism, fm)
				s.AccessAll(tr)
				time = s.Time
			}
			if time > rep.MaxTime {
				rep.MaxTime = time
			}
			totalTime += float64(time)
			n++
			if time > bound {
				rep.BoundViolations++
			}
			if ratio := float64(time) / float64(bound); ratio > rep.WorstGapRatio {
				rep.WorstGapRatio = ratio
			}
		}
	}
	rep.MeanTime = totalTime / float64(n)

	// Empirical exceedance of the *analytical per-map penalty* must be
	// dominated by the analytical penalty distribution: the realized
	// penalty bound of a sampled map is a draw from a distribution that
	// the convolution upper-bounds. Check at each decile threshold with
	// a 5-sigma binomial slack. (Adversarial fault placement is covered
	// separately by ValidateAdversarial.)
	for _, q := range []float64{0.5, 0.2, 0.1, 0.05, 0.01} {
		t := res.Penalty.QuantileExceedance(q)
		exceed := 0
		for _, pen := range penalties {
			if pen > t {
				exceed++
			}
		}
		pHat := float64(exceed) / float64(len(penalties))
		pAna := res.Penalty.CCDF(t)
		slack := 5 * math.Sqrt(pAna*(1-pAna)/float64(len(penalties)))
		if pHat > pAna+slack+1e-9 {
			rep.CCDFViolations++
		}
	}
	return rep, nil
}

// ValidateAdversarial checks the per-map bound against *worst-case*
// fault placements rather than random ones: whole-set kills and
// partial kills of the sets with the largest FMM entries, where the
// analysis has the least slack. Random sampling at realistic pfail
// almost never produces these maps, so this is the sharper probe of the
// FMM's soundness. Returns the number of bound violations (0 for a
// sound analysis).
func ValidateAdversarial(p *program.Program, res *core.Result, pathsPerMap int, seed int64) (int, error) {
	cfg := res.Query.Cache
	if res.DataFMM != nil {
		return 0, fmt.Errorf("sim: adversarial validation does not support data caches")
	}
	rng := rand.New(rand.NewSource(seed))

	// Rank sets by their worst FMM column.
	type ranked struct {
		set   int
		worst int64
	}
	order := make([]ranked, cfg.Sets)
	for s := 0; s < cfg.Sets; s++ {
		order[s].set = s
		for _, v := range res.FMM[s] {
			if v > order[s].worst {
				order[s].worst = v
			}
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i].worst > order[j].worst })

	var maps []cache.FaultMap
	// Kill the top-k hottest sets entirely, k = 1..3.
	for k := 1; k <= 3 && k <= cfg.Sets; k++ {
		fm := cache.NewFaultMap(cfg.Sets, cfg.Ways)
		for i := 0; i < k; i++ {
			for w := 0; w < cfg.Ways; w++ {
				fm[order[i].set][w] = true
			}
		}
		maps = append(maps, fm)
	}
	// Partial kills: f = 1..W-1 ways of every set simultaneously.
	for f := 1; f < cfg.Ways; f++ {
		fm := cache.NewFaultMap(cfg.Sets, cfg.Ways)
		for s := 0; s < cfg.Sets; s++ {
			for w := 0; w < f; w++ {
				fm[s][w] = true
			}
		}
		maps = append(maps, fm)
	}
	// Hottest set fully dead plus one faulty way everywhere else.
	fm := cache.NewFaultMap(cfg.Sets, cfg.Ways)
	for w := 0; w < cfg.Ways; w++ {
		fm[order[0].set][w] = true
	}
	for s := 0; s < cfg.Sets; s++ {
		fm[s][0] = true
	}
	maps = append(maps, fm)

	violations := 0
	for _, fm := range maps {
		bound := res.FaultFreeWCET + PenaltyBound(res, fm)
		for j := 0; j < pathsPerMap; j++ {
			tr, err := p.Trace(program.RandomChooser(rng), 50_000_000)
			if err != nil {
				return violations, err
			}
			s := cache.NewSim(cfg, res.Query.Mechanism, fm)
			s.AccessAll(tr)
			if s.Time > bound {
				violations++
			}
		}
	}
	return violations, nil
}
