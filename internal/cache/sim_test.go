package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// addr builds the byte address of the first instruction of a memory block.
func addr(cfg Config, block uint32) uint32 { return block * uint32(cfg.BlockBytes) }

func TestSimFaultFreeLRU(t *testing.T) {
	cfg := PaperConfig()
	sim := NewSim(cfg, MechanismNone, NewFaultMap(cfg.Sets, cfg.Ways))

	// Four distinct blocks mapping to set 0 fill its four ways.
	blocks := []uint32{0, 16, 32, 48}
	for _, b := range blocks {
		if sim.Access(addr(cfg, b)) {
			t.Fatalf("cold access to block %d hit", b)
		}
	}
	// All four must now hit.
	for _, b := range blocks {
		if !sim.Access(addr(cfg, b)) {
			t.Fatalf("warm access to block %d missed", b)
		}
	}
	// A fifth block to set 0 evicts the LRU one (block 0 after the re-touch
	// order 0,16,32,48 -> LRU is 0).
	if sim.Access(addr(cfg, 64)) {
		t.Fatal("access to fifth block hit")
	}
	if !sim.Access(addr(cfg, 16)) {
		t.Error("block 16 should have survived")
	}
	if sim.Access(addr(cfg, 0)) {
		t.Error("block 0 should have been evicted (LRU)")
	}
	wantTime := int64(6)*cfg.MissCost() + int64(5)*cfg.HitLatency
	if sim.Time != wantTime {
		t.Errorf("Time = %d, want %d", sim.Time, wantTime)
	}
}

func TestSimIntraBlockSpatialLocality(t *testing.T) {
	cfg := PaperConfig()
	sim := NewSim(cfg, MechanismNone, NewFaultMap(cfg.Sets, cfg.Ways))
	// Sequential 4-byte instruction fetches: one miss per 16-byte block.
	var misses int64
	for a := uint32(0); a < 256; a += 4 {
		if !sim.Access(a) {
			misses++
		}
	}
	if misses != 16 {
		t.Errorf("sequential fetch misses = %d, want 16 (one per block)", misses)
	}
}

func TestSimFaultyWaysShrinkStack(t *testing.T) {
	cfg := PaperConfig()
	fm := NewFaultMap(cfg.Sets, cfg.Ways)
	fm[0][1] = true
	fm[0][3] = true // set 0 has only 2 usable ways
	sim := NewSim(cfg, MechanismNone, fm)

	// Three distinct blocks in set 0: the first is evicted.
	for _, b := range []uint32{0, 16, 32} {
		sim.Access(addr(cfg, b))
	}
	if !sim.Access(addr(cfg, 32)) || !sim.Access(addr(cfg, 16)) {
		t.Error("two most recent blocks must fit in 2 usable ways")
	}
	if sim.Access(addr(cfg, 0)) {
		t.Error("block 0 must have been evicted from the shrunken set")
	}
	// Other sets are unaffected.
	sim.Access(addr(cfg, 1))
	sim.Access(addr(cfg, 17))
	sim.Access(addr(cfg, 33))
	sim.Access(addr(cfg, 49))
	if !sim.Access(addr(cfg, 1)) {
		t.Error("set 1 must still hold 4 blocks")
	}
}

func TestSimWholeSetFaultyNoProtection(t *testing.T) {
	cfg := PaperConfig()
	fm := NewFaultMap(cfg.Sets, cfg.Ways)
	for w := 0; w < cfg.Ways; w++ {
		fm[5][w] = true
	}
	sim := NewSim(cfg, MechanismNone, fm)
	// Every access to set 5 misses, even repeated ones.
	a := addr(cfg, 5)
	for i := 0; i < 10; i++ {
		if sim.Access(a) {
			t.Fatal("access to fully-faulty set hit without protection")
		}
	}
	if sim.Misses != 10 {
		t.Errorf("Misses = %d, want 10", sim.Misses)
	}
}

func TestSimRWMasksWayZero(t *testing.T) {
	cfg := PaperConfig()
	fm := NewFaultMap(cfg.Sets, cfg.Ways)
	for w := 0; w < cfg.Ways; w++ {
		fm[5][w] = true
	}
	sim := NewSim(cfg, MechanismRW, fm)
	a := addr(cfg, 5)
	if sim.Access(a) {
		t.Fatal("cold access hit")
	}
	for i := 0; i < 9; i++ {
		if !sim.Access(a) {
			t.Fatal("RW must keep one usable way: repeated access should hit")
		}
	}
	// With one usable way, two alternating blocks thrash.
	b := addr(cfg, 5+16)
	sim.Access(b)
	if sim.Access(a) {
		t.Error("direct-mapped behavior: block a must have been evicted by b")
	}
}

func TestSimRWDoesNotMaskOtherWays(t *testing.T) {
	cfg := PaperConfig()
	fm := NewFaultMap(cfg.Sets, cfg.Ways)
	fm[2][1] = true
	fm[2][2] = true
	simRW := NewSim(cfg, MechanismRW, fm)
	// RW only guarantees way 0: set 2 has 2 usable ways here, same as
	// without protection (the faults are not in way 0).
	if got := fm.UsableWays(2, MechanismRW); got != 2 {
		t.Errorf("UsableWays(RW) = %d, want 2", got)
	}
	if got := fm.UsableWays(2, MechanismNone); got != 2 {
		t.Errorf("UsableWays(None) = %d, want 2", got)
	}
	fm2 := NewFaultMap(cfg.Sets, cfg.Ways)
	fm2[2][0] = true
	if got := fm2.UsableWays(2, MechanismRW); got != 4 {
		t.Errorf("UsableWays with only way 0 faulty under RW = %d, want 4 (masked)", got)
	}
	if got := fm2.UsableWays(2, MechanismNone); got != 3 {
		t.Errorf("UsableWays with way 0 faulty, no protection = %d, want 3", got)
	}
	_ = simRW
}

func TestSimSRBOnlyUsedWhenSetFullyFaulty(t *testing.T) {
	cfg := PaperConfig()
	fm := NewFaultMap(cfg.Sets, cfg.Ways)
	for w := 0; w < cfg.Ways; w++ {
		fm[3][w] = true
	}
	sim := NewSim(cfg, MechanismSRB, fm)

	a := addr(cfg, 3)     // set 3, fully faulty -> SRB
	other := addr(cfg, 4) // set 4, healthy -> normal look-up
	if sim.Access(a) {
		t.Fatal("cold SRB access hit")
	}
	if !sim.Access(a) {
		t.Fatal("repeated SRB access must hit")
	}
	// Accesses to healthy sets do not disturb the SRB.
	sim.Access(other)
	if !sim.Access(a) {
		t.Error("SRB content must survive accesses to healthy sets")
	}
	if sim.SRBHits != 2 || sim.SRBMisses != 1 {
		t.Errorf("SRB stats = %d hits / %d misses, want 2/1", sim.SRBHits, sim.SRBMisses)
	}
	// A different block of another fully-faulty set reloads the SRB.
	for w := 0; w < cfg.Ways; w++ {
		fm[7][w] = true
	}
	sim2 := NewSim(cfg, MechanismSRB, fm)
	sim2.Access(a)
	sim2.Access(addr(cfg, 7)) // reloads SRB
	if sim2.Access(a) {
		t.Error("SRB must have been reloaded by the other faulty set")
	}
}

func TestSimSRBSpatialLocality(t *testing.T) {
	cfg := PaperConfig()
	fm := NewFaultMap(cfg.Sets, cfg.Ways)
	for s := 0; s < cfg.Sets; s++ {
		for w := 0; w < cfg.Ways; w++ {
			fm[s][w] = true
		}
	}
	sim := NewSim(cfg, MechanismSRB, fm)
	// Entirely faulty cache: sequential code still only misses once per
	// block thanks to the SRB (this is the "spatial locality preserved"
	// property of Section III.A.2).
	var misses int64
	for a := uint32(0); a < 256; a += 4 {
		if !sim.Access(a) {
			misses++
		}
	}
	if misses != 16 {
		t.Errorf("sequential fetch misses with SRB = %d, want 16", misses)
	}

	// Without protection the same stream misses on every fetch.
	simNone := NewSim(cfg, MechanismNone, fm)
	misses = 0
	for a := uint32(0); a < 256; a += 4 {
		if !simNone.Access(a) {
			misses++
		}
	}
	if misses != 64 {
		t.Errorf("sequential fetch misses without protection = %d, want 64", misses)
	}
}

// TestSimMoreFaultsNeverHelp checks the monotonicity property underlying
// the whole paper: adding faults can only increase the number of misses of
// a fixed trace (for the unprotected cache). This is a prerequisite for
// the FMM to be meaningful.
func TestSimMoreFaultsNeverHelp(t *testing.T) {
	cfg := Config{Sets: 4, Ways: 2, BlockBytes: 8, HitLatency: 1, MemLatency: 10}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		trace := make([]uint32, 200)
		for i := range trace {
			trace[i] = uint32(rng.Intn(64)) * 4
		}
		fm := NewFaultMap(cfg.Sets, cfg.Ways)
		prev := int64(-1)
		// Progressively add faults; misses must be non-decreasing.
		order := rng.Perm(cfg.Sets * cfg.Ways)
		for step := 0; step <= len(order); step++ {
			sim := NewSim(cfg, MechanismNone, fm)
			m := sim.AccessAll(trace)
			if prev >= 0 && m < prev {
				return false
			}
			prev = m
			if step < len(order) {
				fm[order[step]/cfg.Ways][order[step]%cfg.Ways] = true
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestSimRWDominatesNone checks that on any trace and fault map, the RW
// mechanism never produces more misses than no protection, and SRB never
// produces more misses than no protection (they can only mask faults).
func TestSimMechanismsNeverHurt(t *testing.T) {
	cfg := Config{Sets: 4, Ways: 2, BlockBytes: 8, HitLatency: 1, MemLatency: 10}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		trace := make([]uint32, 300)
		for i := range trace {
			trace[i] = uint32(rng.Intn(48)) * 4
		}
		fm := NewFaultMap(cfg.Sets, cfg.Ways)
		for s := 0; s < cfg.Sets; s++ {
			for w := 0; w < cfg.Ways; w++ {
				fm[s][w] = rng.Intn(2) == 0
			}
		}
		none := NewSim(cfg, MechanismNone, fm)
		rw := NewSim(cfg, MechanismRW, fm)
		srb := NewSim(cfg, MechanismSRB, fm)
		mNone := none.AccessAll(trace)
		mRW := rw.AccessAll(trace)
		mSRB := srb.AccessAll(trace)
		return mRW <= mNone && mSRB <= mNone
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestFaultMapHelpers(t *testing.T) {
	fm := NewFaultMap(4, 2)
	fm[1][0] = true
	fm[3][0] = true
	fm[3][1] = true
	if got := fm.NumFaulty(0); got != 0 {
		t.Errorf("NumFaulty(0) = %d, want 0", got)
	}
	if got := fm.NumFaulty(3); got != 2 {
		t.Errorf("NumFaulty(3) = %d, want 2", got)
	}
}
