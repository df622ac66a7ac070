package absint

import (
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/chmc"
	"repro/internal/progen"
	"repro/internal/program"
)

// TestDataClassificationSoundVsSimulation mirrors the instruction-side
// soundness property for the data-cache analysis: on random programs
// with random scalar loads/stores and random paths, AlwaysHit data
// references never miss, FirstMiss miss at most once, AlwaysMiss never
// hit — against concrete simulation of the data cache.
func TestDataClassificationSoundVsSimulation(t *testing.T) {
	dcfg := cache.Config{Sets: 2, Ways: 2, BlockBytes: 8, HitLatency: 1, MemLatency: 10}
	params := progen.DefaultParams()
	params.DataBlocks = 12
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(3000 + seed))
		p := progen.Random(rng, params)
		da := NewData(p, dcfg)
		classes := da.ClassifyAll()
		if len(da.Refs()) == 0 {
			continue // no data accesses generated this time
		}

		for path := 0; path < 3; path++ {
			blocks, err := p.TraceBlocks(program.RandomChooser(rng), 200000)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			sim := cache.NewSim(dcfg, cache.MechanismNone, cache.NewFaultMap(dcfg.Sets, dcfg.Ways))
			hits := make([]int, len(da.Refs()))
			misses := make([]int, len(da.Refs()))
			for _, bb := range blocks {
				for _, r := range da.RefsOf(bb) {
					if sim.Access(r.FirstAddr) {
						hits[r.Global]++
					} else {
						misses[r.Global]++
					}
				}
			}
			for _, r := range da.Refs() {
				switch classes[r.Global] {
				case chmc.AlwaysHit:
					if misses[r.Global] > 0 {
						t.Fatalf("seed %d: data AH ref %d missed", seed, r.Global)
					}
				case chmc.FirstMiss:
					if misses[r.Global] > 1 {
						t.Fatalf("seed %d: data FM ref %d missed %d times", seed, r.Global, misses[r.Global])
					}
				case chmc.AlwaysMiss:
					if hits[r.Global] > 0 {
						t.Fatalf("seed %d: data AM ref %d hit", seed, r.Global)
					}
				}
			}
		}
	}
}

// TestDataRefsRunCompression checks consecutive same-block accesses
// compress into one reference with the right access count.
func TestDataRefsRunCompression(t *testing.T) {
	dcfg := cache.Config{Sets: 2, Ways: 2, BlockBytes: 8, HitLatency: 1, MemLatency: 10}
	b := program.New("runs")
	// Two accesses to the same 8-byte block (0x100, 0x104), then one to
	// a different block, then back to the first.
	b.Func("main").Load(0x100).Store(0x104).Load(0x200).Load(0x100)
	p := b.MustBuild()
	perBB, all := ComputeDataRefs(p, dcfg)
	_ = perBB
	if len(all) != 3 {
		t.Fatalf("data refs = %d, want 3 (run compression + re-access)", len(all))
	}
	if all[0].NumInstr != 2 {
		t.Errorf("first run has %d accesses, want 2", all[0].NumInstr)
	}
	if all[1].NumInstr != 1 || all[2].NumInstr != 1 {
		t.Error("later runs must have 1 access each")
	}
	if all[0].Block != all[2].Block {
		t.Error("first and last refs must be the same block")
	}
}

// TestInstructionRefsUnaffectedByData ensures data accesses do not leak
// into the instruction analyzer.
func TestInstructionRefsUnaffectedByData(t *testing.T) {
	cfg := testConfig()
	b1 := program.New("with")
	b1.Func("main").Load(0x5000).Ops(3).Store(0x5008)
	p1 := b1.MustBuild()
	b2 := program.New("without")
	b2.Func("main").Ops(5) // same instruction count (load/store are 1 instr each)
	p2 := b2.MustBuild()
	a1 := New(p1, cfg)
	a2 := New(p2, cfg)
	if len(a1.Refs()) != len(a2.Refs()) {
		t.Errorf("instruction refs differ: %d vs %d", len(a1.Refs()), len(a2.Refs()))
	}
}
