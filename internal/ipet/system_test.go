package ipet

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/absint"
	"repro/internal/cache"
	"repro/internal/chmc"
	"repro/internal/progen"
	"repro/internal/program"
)

func testConfig() cache.Config {
	return cache.Config{Sets: 4, Ways: 2, BlockBytes: 8, HitLatency: 1, MemLatency: 10}
}

// simTime runs the full instruction trace through a concrete simulator
// and returns the cycle count.
func simTime(t *testing.T, p *program.Program, cfg cache.Config, mech cache.Mechanism,
	fm cache.FaultMap, choose program.Chooser) int64 {
	t.Helper()
	tr, err := p.Trace(choose, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	sim := cache.NewSim(cfg, mech, fm)
	sim.AccessAll(tr)
	return sim.Time
}

func analyze(t *testing.T, p *program.Program, cfg cache.Config) (*System, *absint.Analyzer, *WCETResult) {
	t.Helper()
	sys, err := NewSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	a := absint.New(p, cfg)
	res, err := WCETCombined(sys, a, a.ClassifyAll(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sys, a, res
}

func TestWCETStraightLine(t *testing.T) {
	cfg := testConfig()
	b := program.New("straight")
	b.Func("main").Ops(7) // 8 instructions, 4 blocks
	p := b.MustBuild()
	_, _, res := analyze(t, p, cfg)
	// 8 fetches at 1 cycle + 4 cold (first) misses at 10 extra cycles.
	if res.WCET != 8+4*10 {
		t.Errorf("WCET = %d, want 48", res.WCET)
	}
	if res.FMRefs != 4 {
		t.Errorf("FM refs = %d, want 4", res.FMRefs)
	}
}

func TestWCETSinglePathLoopExactlyMatchesSimulation(t *testing.T) {
	cfg := testConfig()
	b := program.New("fits")
	b.Func("main").Loop(9, func(l *program.Body) { l.Ops(3) })
	p := b.MustBuild()
	_, _, res := analyze(t, p, cfg)
	first := func(_ int, succs []int) int { return succs[0] }
	sim := simTime(t, p, cfg, cache.MechanismNone, cache.NewFaultMap(cfg.Sets, cfg.Ways), first)
	// Single-path program whose loop fits in the cache: all references
	// are exactly classified, so the static WCET is exact.
	if res.WCET != sim {
		t.Errorf("WCET = %d, simulated = %d (must be exact here)", res.WCET, sim)
	}
}

func TestWCETTakesWorstBranch(t *testing.T) {
	cfg := testConfig()
	b := program.New("branch")
	b.Func("main").If(
		func(then *program.Body) { then.Ops(2) },
		func(els *program.Body) { els.Ops(30) },
	)
	p := b.MustBuild()
	_, _, res := analyze(t, p, cfg)
	first := func(_ int, succs []int) int { return succs[0] }
	second := func(_ int, succs []int) int { return succs[1] }
	simThen := simTime(t, p, cfg, cache.MechanismNone, cache.NewFaultMap(cfg.Sets, cfg.Ways), first)
	simElse := simTime(t, p, cfg, cache.MechanismNone, cache.NewFaultMap(cfg.Sets, cfg.Ways), second)
	worst := simThen
	if simElse > worst {
		worst = simElse
	}
	if res.WCET < worst {
		t.Errorf("WCET = %d below worst simulated branch %d", res.WCET, worst)
	}
	// The else branch dominates by construction; the WCET must reflect
	// it rather than the then branch.
	if res.WCET < simElse {
		t.Errorf("WCET = %d, want >= else-branch time %d", res.WCET, simElse)
	}
}

func TestWCETRespectsLoopBounds(t *testing.T) {
	cfg := testConfig()
	b := program.New("bounds")
	b.Func("main").Loop(7, func(l *program.Body) { l.Ops(2) })
	p := b.MustBuild()
	sys, _, res := analyze(t, p, cfg)
	_ = res
	// The loop body block must execute exactly 7 times on the worst path.
	weights := make([]float64, len(p.Blocks))
	body := p.Blocks[p.Loops[0].BodySucc]
	weights[body.ID] = 1
	r, err := sys.MaximizeBlockWeights(weights, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Objective-7) > 1e-6 {
		t.Errorf("max body executions = %v, want 7", r.Objective)
	}
	if !r.Integral {
		t.Error("IPET relaxation unexpectedly fractional")
	}
}

func TestWCETSoundOnRandomPrograms(t *testing.T) {
	cfg := testConfig()
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := progen.Random(rng, progen.DefaultParams())
		_, _, res := analyze(t, p, cfg)
		for path := 0; path < 5; path++ {
			sim := simTime(t, p, cfg, cache.MechanismNone,
				cache.NewFaultMap(cfg.Sets, cfg.Ways), program.RandomChooser(rng))
			if sim > res.WCET {
				t.Fatalf("seed %d: simulated %d exceeds WCET %d", seed, sim, res.WCET)
			}
		}
	}
}

func TestFMMZeroFaultsZero(t *testing.T) {
	cfg := testConfig()
	p := progen.Random(rand.New(rand.NewSource(1)), progen.DefaultParams())
	sys, a, _ := analyze(t, p, cfg)
	fmm, err := ComputeFMM(sys, a, a.ClassifyAll(), FMMOptions{Mechanism: cache.MechanismNone})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < cfg.Sets; s++ {
		if fmm[s][0] != 0 {
			t.Errorf("FMM[%d][0] = %d, want 0", s, fmm[s][0])
		}
	}
}

func TestFMMMonotoneInFaults(t *testing.T) {
	cfg := testConfig()
	for seed := int64(0); seed < 10; seed++ {
		p := progen.Random(rand.New(rand.NewSource(100+seed)), progen.DefaultParams())
		sys, a, _ := analyze(t, p, cfg)
		fmm, err := ComputeFMM(sys, a, a.ClassifyAll(), FMMOptions{Mechanism: cache.MechanismNone})
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < cfg.Sets; s++ {
			for f := 1; f <= cfg.Ways; f++ {
				if fmm[s][f] < fmm[s][f-1] {
					t.Errorf("seed %d: FMM[%d] not monotone: f=%d gives %d < %d",
						seed, s, f, fmm[s][f], fmm[s][f-1])
				}
			}
		}
	}
}

func TestFMMRWColumnEmpty(t *testing.T) {
	cfg := testConfig()
	p := progen.Random(rand.New(rand.NewSource(5)), progen.DefaultParams())
	sys, a, _ := analyze(t, p, cfg)
	base := a.ClassifyAll()
	fmmRW, err := ComputeFMM(sys, a, base, FMMOptions{Mechanism: cache.MechanismRW})
	if err != nil {
		t.Fatal(err)
	}
	fmmNone, err := ComputeFMM(sys, a, base, FMMOptions{Mechanism: cache.MechanismNone})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < cfg.Sets; s++ {
		if fmmRW[s][cfg.Ways] != 0 {
			t.Errorf("RW FMM[%d][W] = %d, want 0 (column excluded)", s, fmmRW[s][cfg.Ways])
		}
		for f := 1; f < cfg.Ways; f++ {
			if fmmRW[s][f] != fmmNone[s][f] {
				t.Errorf("RW FMM[%d][%d] = %d, differs from unprotected %d",
					s, f, fmmRW[s][f], fmmNone[s][f])
			}
		}
	}
}

func TestFMMSRBColumnNotWorseThanNone(t *testing.T) {
	cfg := testConfig()
	for seed := int64(0); seed < 10; seed++ {
		p := progen.Random(rand.New(rand.NewSource(200+seed)), progen.DefaultParams())
		sys, a, _ := analyze(t, p, cfg)
		base := a.ClassifyAll()
		fmmNone, err := ComputeFMM(sys, a, base, FMMOptions{Mechanism: cache.MechanismNone})
		if err != nil {
			t.Fatal(err)
		}
		fmmSRB, err := ComputeFMM(sys, a, base, FMMOptions{Mechanism: cache.MechanismSRB, SRBHit: a.ClassifySRB()})
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < cfg.Sets; s++ {
			if fmmSRB[s][cfg.Ways] > fmmNone[s][cfg.Ways] {
				t.Errorf("seed %d: SRB FMM[%d][W] = %d worse than unprotected %d",
					seed, s, fmmSRB[s][cfg.Ways], fmmNone[s][cfg.Ways])
			}
			for f := 1; f < cfg.Ways; f++ {
				if fmmSRB[s][f] != fmmNone[s][f] {
					t.Errorf("seed %d: SRB FMM[%d][%d] differs below f=W", seed, s, f)
				}
			}
		}
	}
}

// missesPerSet runs the instruction trace and counts misses per set.
func missesPerSet(cfg cache.Config, mech cache.Mechanism, fm cache.FaultMap, tr []uint32) []int64 {
	sim := cache.NewSim(cfg, mech, fm)
	out := make([]int64, cfg.Sets)
	for _, a := range tr {
		if !sim.Access(a) {
			out[cfg.SetOfBlock(cfg.BlockAddr(a))]++
		}
	}
	return out
}

// chargedMissesPerSet computes, per set, the misses the fault-free WCET
// charges along a concrete block trace: one per execution for always-miss
// and not-classified references, one per run for first-miss references,
// none for always-hits. The FMM bounds fault-induced misses relative to
// this charged baseline (the charge headroom for NC references lives in
// the fault-free WCET, which the end-to-end test exercises).
func chargedMissesPerSet(a *absint.Analyzer, classes []chmc.Class, blockTrace []int) []int64 {
	cfg := a.Config()
	counts := make(map[int]int64)
	for _, bb := range blockTrace {
		counts[bb]++
	}
	out := make([]int64, cfg.Sets)
	for _, r := range a.Refs() {
		switch {
		case classes[r.Global].CountsAsMiss():
			out[r.Set] += counts[r.BB]
		case classes[r.Global] == chmc.FirstMiss:
			out[r.Set]++
		}
	}
	return out
}

// TestFMMSoundVsSimulation is the FMM's core soundness property: for any
// path and any single degraded set, the measured misses of that set never
// exceed the charged fault-free baseline plus the FMM entry.
func TestFMMSoundVsSimulation(t *testing.T) {
	cfg := testConfig()
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(300 + seed))
		p := progen.Random(rng, progen.DefaultParams())
		sys, a, _ := analyze(t, p, cfg)
		base := a.ClassifyAll()
		fmmNone, err := ComputeFMM(sys, a, base, FMMOptions{Mechanism: cache.MechanismNone})
		if err != nil {
			t.Fatal(err)
		}
		fmmSRB, err := ComputeFMM(sys, a, base, FMMOptions{Mechanism: cache.MechanismSRB, SRBHit: a.ClassifySRB()})
		if err != nil {
			t.Fatal(err)
		}

		for trial := 0; trial < 4; trial++ {
			chooser := replayChooser(rng)
			blocks, err := p.TraceBlocks(chooser.choose, 2_000_000)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := p.Trace(chooser.replay(), 2_000_000)
			if err != nil {
				t.Fatal(err)
			}
			charged := chargedMissesPerSet(a, base, blocks)

			set := rng.Intn(cfg.Sets)
			f := 1 + rng.Intn(cfg.Ways)
			fm := cache.NewFaultMap(cfg.Sets, cfg.Ways)
			for w := 0; w < f; w++ {
				fm[set][w] = true
			}

			degMisses := missesPerSet(cfg, cache.MechanismNone, fm, tr)
			if degMisses[set] > charged[set]+fmmNone[set][f] {
				t.Fatalf("seed %d trial %d: set %d f=%d misses %d exceed charged %d + FMM %d",
					seed, trial, set, f, degMisses[set], charged[set], fmmNone[set][f])
			}

			if f == cfg.Ways {
				srbMisses := missesPerSet(cfg, cache.MechanismSRB, fm, tr)
				if srbMisses[set] > charged[set]+fmmSRB[set][f] {
					t.Fatalf("seed %d trial %d: set %d SRB misses %d exceed charged %d + FMM %d",
						seed, trial, set, srbMisses[set], charged[set], fmmSRB[set][f])
				}
			}
		}
	}
}

// replayChooser records branch decisions so a block trace and an
// instruction trace can follow the identical path.
type recordedChooser struct {
	rng       *rand.Rand
	decisions []int
	pos       int
}

func replayChooser(rng *rand.Rand) *recordedChooser { return &recordedChooser{rng: rng} }

func (c *recordedChooser) choose(_ int, succs []int) int {
	d := c.rng.Intn(len(succs))
	c.decisions = append(c.decisions, d)
	return succs[d]
}

func (c *recordedChooser) replay() program.Chooser {
	c.pos = 0
	return func(_ int, succs []int) int {
		d := c.decisions[c.pos]
		c.pos++
		return succs[d]
	}
}

// TestEndToEndPenaltySound checks the additive bound underlying the whole
// method: simulated time with an arbitrary fault map never exceeds the
// fault-free WCET plus the sum of the per-set FMM penalties.
func TestEndToEndPenaltySound(t *testing.T) {
	cfg := testConfig()
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(400 + seed))
		p := progen.Random(rng, progen.DefaultParams())
		sys, a, res := analyze(t, p, cfg)
		base := a.ClassifyAll()
		srbHit := a.ClassifySRB()
		fmmNone, _ := ComputeFMM(sys, a, base, FMMOptions{Mechanism: cache.MechanismNone})
		fmmSRB, _ := ComputeFMM(sys, a, base, FMMOptions{Mechanism: cache.MechanismSRB, SRBHit: srbHit})
		fmmRW, _ := ComputeFMM(sys, a, base, FMMOptions{Mechanism: cache.MechanismRW})

		fm := cache.NewFaultMap(cfg.Sets, cfg.Ways)
		for s := range fm {
			for w := range fm[s] {
				fm[s][w] = rng.Intn(3) == 0
			}
		}
		for trial := 0; trial < 3; trial++ {
			choose := program.RandomChooser(rng)
			for _, mech := range []cache.Mechanism{cache.MechanismNone, cache.MechanismRW, cache.MechanismSRB} {
				var fmm FMM
				switch mech {
				case cache.MechanismRW:
					fmm = fmmRW
				case cache.MechanismSRB:
					fmm = fmmSRB
				default:
					fmm = fmmNone
				}
				bound := res.WCET
				for s := 0; s < cfg.Sets; s++ {
					fEff := cfg.Sets
					_ = fEff
					f := fm.NumFaulty(s)
					if mech == cache.MechanismRW && fm[s][0] {
						f-- // the reliable way masks its own fault
					}
					bound += fmm[s][f] * cfg.MissPenalty()
				}
				sim := simTime(t, p, cfg, mech, fm, choose)
				if sim > bound {
					t.Fatalf("seed %d trial %d mech %v: simulated %d exceeds bound %d",
						seed, trial, mech, sim, bound)
				}
			}
		}
	}
}
