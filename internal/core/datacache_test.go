package core

import (
	"math/rand"
	"testing"

	"repro/internal/absint"
	"repro/internal/cache"
	"repro/internal/chmc"
	"repro/internal/program"
)

func dcacheConfig() cache.Config {
	return cache.Config{Sets: 4, Ways: 2, BlockBytes: 8, HitLatency: 1, MemLatency: 10}
}

// buildDataProgram is a small kernel with scalar loads/stores: an
// accumulation loop reading two table entries and writing one result
// per iteration.
func buildDataProgram() *program.Program {
	b := program.New("datakernel")
	b.Func("main").
		Ops(4).
		Loop(20, func(l *program.Body) {
			l.Load(0x1000). // table A (block 512, set 0)
					Load(0x1008). // table B (block 513, set 1)
					Ops(3).
					Store(0x1010) // result (block 514, set 2)
		}).
		Ops(2)
	return b.MustBuild()
}

func TestDataRefsComputed(t *testing.T) {
	p := buildDataProgram()
	da := absint.NewData(p, dcacheConfig())
	refs := da.Refs()
	if len(refs) == 0 {
		t.Fatal("no data references found")
	}
	// Three distinct data blocks: 0x1000/8=512, 0x1008/8=513, 0x1010/8=514.
	blocks := map[uint32]bool{}
	for _, r := range refs {
		blocks[r.Block] = true
	}
	for _, want := range []uint32{512, 513, 514} {
		if !blocks[want] {
			t.Errorf("data block %d missing from references", want)
		}
	}
}

func TestDataClassificationLoopResident(t *testing.T) {
	p := buildDataProgram()
	da := absint.NewData(p, dcacheConfig())
	classes := da.ClassifyAll()
	// Three scalar blocks in three distinct sets: all resident after
	// the first access -> FM or AH, never AM.
	for _, r := range da.Refs() {
		if c := classes[r.Global]; c != chmc.FirstMiss && c != chmc.AlwaysHit {
			t.Errorf("data ref %d (block %d): %v, want FM/AH", r.Global, r.Block, c)
		}
	}
}

func TestCombinedWCETAddsDataCosts(t *testing.T) {
	p := buildDataProgram()
	icfg := dcacheConfig()
	dcfg := dcacheConfig()
	without, err := Analyze(p, EngineOptions{}, Query{Cache: icfg, Pfail: 0})
	if err != nil {
		t.Fatal(err)
	}
	with, err := Analyze(p, EngineOptions{}, Query{Cache: icfg, Pfail: 0, DataCache: &dcfg})
	if err != nil {
		t.Fatal(err)
	}
	if with.FaultFreeWCET <= without.FaultFreeWCET {
		t.Errorf("combined WCET %d not above instruction-only %d",
			with.FaultFreeWCET, without.FaultFreeWCET)
	}
	// At pfail=0 the pWCET equals the WCET.
	if with.PWCET != with.FaultFreeWCET {
		t.Errorf("pWCET %d != WCET %d at pfail 0", with.PWCET, with.FaultFreeWCET)
	}
	// Exact accounting on this single-path program: 60 data accesses
	// (3 per iteration x 20) at 1 cycle plus 3 cold data misses at 10.
	wantExtra := int64(60*1 + 3*10)
	if got := with.FaultFreeWCET - without.FaultFreeWCET; got != wantExtra {
		t.Errorf("data cost = %d, want %d", got, wantExtra)
	}
}

func TestDataFaultsRaisePWCET(t *testing.T) {
	p := buildDataProgram()
	icfg := dcacheConfig()
	dcfg := dcacheConfig()
	for _, mech := range []cache.Mechanism{cache.MechanismNone, cache.MechanismRW, cache.MechanismSRB} {
		r, err := Analyze(p, EngineOptions{}, Query{Cache: icfg, Pfail: 1e-3, Mechanism: mech, DataCache: &dcfg})
		if err != nil {
			t.Fatal(err)
		}
		if r.DataFMM == nil {
			t.Fatal("data FMM missing")
		}
		if r.PWCET < r.FaultFreeWCET {
			t.Errorf("%v: pWCET below WCET", mech)
		}
		// The data kernel's blocks are hot; unprotected faults must
		// show up in the data FMM's full-set column for their sets.
		if mech == cache.MechanismNone {
			total := int64(0)
			for s := range r.DataFMM {
				total += r.DataFMM[s][dcfg.Ways]
			}
			if total == 0 {
				t.Error("no fault-induced data misses in the f=W columns")
			}
		}
	}
}

func TestDataCacheMechanismOrdering(t *testing.T) {
	p := buildDataProgram()
	icfg := dcacheConfig()
	dcfg := dcacheConfig()
	results := map[cache.Mechanism]*Result{}
	for _, mech := range []cache.Mechanism{cache.MechanismNone, cache.MechanismRW, cache.MechanismSRB} {
		r, err := Analyze(p, EngineOptions{}, Query{Cache: icfg, Pfail: 2e-3, Mechanism: mech, DataCache: &dcfg})
		if err != nil {
			t.Fatal(err)
		}
		results[mech] = r
	}
	none, rw, srb := results[cache.MechanismNone], results[cache.MechanismRW], results[cache.MechanismSRB]
	if !(rw.PWCET <= srb.PWCET && srb.PWCET <= none.PWCET) {
		t.Errorf("ordering violated with data cache: rw %d, srb %d, none %d",
			rw.PWCET, srb.PWCET, none.PWCET)
	}
}

func TestPreciseSRBWithDataCacheRejected(t *testing.T) {
	p := buildDataProgram()
	dcfg := dcacheConfig()
	_, err := Analyze(p, EngineOptions{}, Query{
		Cache: dcacheConfig(), Pfail: 1e-4,
		Mechanism: cache.MechanismSRB, PreciseSRB: true, DataCache: &dcfg,
	})
	if err == nil {
		t.Error("PreciseSRB with DataCache accepted")
	}
}

func TestDataTraceInterleavesAccesses(t *testing.T) {
	p := buildDataProgram()
	first := func(_ int, succs []int) int { return succs[0] }
	accesses, err := p.TraceAccesses(first, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	dataCount, storeCount := 0, 0
	for _, a := range accesses {
		if a.Data {
			dataCount++
			if a.Store {
				storeCount++
			}
		}
	}
	if dataCount != 60 {
		t.Errorf("data accesses = %d, want 60", dataCount)
	}
	if storeCount != 20 {
		t.Errorf("stores = %d, want 20", storeCount)
	}
	// A data access must directly follow the fetch of its instruction.
	rng := rand.New(rand.NewSource(1))
	_ = rng
	for i, a := range accesses {
		if a.Data && i == 0 {
			t.Fatal("trace starts with a data access")
		}
	}
}
