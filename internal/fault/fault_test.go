package fault

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cache"
)

func TestPBFPaperValues(t *testing.T) {
	// Paper Section IV.A: pfail = 1e-4, 16-byte (128-bit) blocks.
	pbf := PBF(1e-4, 128)
	// 1-(1-1e-4)^128 = 0.012719...
	want := 1 - math.Pow(1-1e-4, 128)
	if math.Abs(pbf-want) > 1e-12 {
		t.Errorf("PBF = %g, want %g", pbf, want)
	}
	if pbf < 0.0127 || pbf > 0.0128 {
		t.Errorf("PBF = %g outside the expected ~1.27%% range", pbf)
	}
}

func TestPBFEdgeCases(t *testing.T) {
	if PBF(0, 128) != 0 {
		t.Error("PBF(0) != 0")
	}
	if PBF(1, 128) != 1 {
		t.Error("PBF(1) != 1")
	}
	// Tiny pfail must not underflow to zero (expm1/log1p path).
	if p := PBF(6.1e-13, 128); p <= 0 || p > 1e-9 {
		t.Errorf("PBF(6.1e-13) = %g, want ~7.8e-11 (45nm roadmap value)", p)
	}
}

func TestPWFSumsToOne(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := 1 + rng.Intn(8)
		pbf := rng.Float64()
		sum := 0.0
		for _, p := range PWF(w, pbf) {
			if p < 0 {
				return false
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			return false
		}
		sumRW := 0.0
		for _, p := range PWFReliableWay(w, pbf) {
			sumRW += p
		}
		return math.Abs(sumRW-1) > 1e-9 == false
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPWFExactUnitMass is the regression test for the renormalization
// of binomial: the raw terms accumulate floating-point error, and any
// deviation from unit mass surfaces as wrong deep-tail quantiles at
// the paper's 1e-15 target. The sum must now be exactly 1.0 — not just
// within a tolerance — for every associativity and failure probability.
func TestPWFExactUnitMass(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pbfs := []float64{0, 1e-12, 1e-6, 0.0127, 0.1, 0.5, 0.9, 1 - 1e-9, 1}
	for i := 0; i < 100; i++ {
		pbfs = append(pbfs, rng.Float64())
	}
	for w := 1; w <= 16; w++ {
		for _, pbf := range pbfs {
			var sum float64
			for _, p := range PWF(w, pbf) {
				if p < 0 {
					t.Fatalf("PWF(%d, %g): negative probability %g", w, pbf, p)
				}
				sum += p
			}
			if sum != 1 {
				t.Errorf("PWF(%d, %g) sums to %.17g, want exactly 1", w, pbf, sum)
			}
			sum = 0
			for _, p := range PWFReliableWay(w+1, pbf) {
				if p < 0 {
					t.Fatalf("PWFReliableWay(%d, %g): negative probability %g", w+1, pbf, p)
				}
				sum += p
			}
			if sum != 1 {
				t.Errorf("PWFReliableWay(%d, %g) sums to %.17g, want exactly 1", w+1, pbf, sum)
			}
		}
	}
}

func TestPWFKnownValues(t *testing.T) {
	// W=4, pbf=0.5: binomial(4, 0.5) = 1/16, 4/16, 6/16, 4/16, 1/16.
	got := PWF(4, 0.5)
	want := []float64{1.0 / 16, 4.0 / 16, 6.0 / 16, 4.0 / 16, 1.0 / 16}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("PWF[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	// RW variant: binomial over W-1 = 3 ways.
	gotRW := PWFReliableWay(4, 0.5)
	wantRW := []float64{1.0 / 8, 3.0 / 8, 3.0 / 8, 1.0 / 8}
	if len(gotRW) != 4 {
		t.Fatalf("PWFReliableWay length = %d, want 4 (w in [0,W-1])", len(gotRW))
	}
	for i := range wantRW {
		if math.Abs(gotRW[i]-wantRW[i]) > 1e-12 {
			t.Errorf("PWFReliableWay[%d] = %g, want %g", i, gotRW[i], wantRW[i])
		}
	}
}

func TestPWFRWCutsTail(t *testing.T) {
	// The RW removes the all-ways-faulty case: P(w = W) is simply not a
	// point of the RW distribution, and P(W-1 faulty) under RW is larger
	// than under no protection (conditioning on one fewer way).
	pbf := PBF(1e-4, 128)
	none := PWF(4, pbf)
	rw := PWFReliableWay(4, pbf)
	if none[4] <= 0 {
		t.Fatal("unprotected P(all faulty) must be positive")
	}
	if len(rw) != 4 {
		t.Fatal("RW distribution must stop at W-1")
	}
	if rw[3] <= none[4] {
		t.Errorf("P_RW(3 faulty) = %g should exceed P(4 faulty) = %g", rw[3], none[4])
	}
}

func TestNewModel(t *testing.T) {
	cfg := cache.PaperConfig()
	m, err := NewModel(1e-4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Pfail != 1e-4 {
		t.Error("Pfail not recorded")
	}
	if math.Abs(m.PBF-PBF(1e-4, 128)) > 1e-15 {
		t.Error("PBF mismatch")
	}
	for _, bad := range []float64{-0.1, 1.1, math.NaN()} {
		if _, err := NewModel(bad, cfg); err == nil {
			t.Errorf("NewModel(%v) accepted", bad)
		}
	}
}

// faultyBlocks counts the faulty blocks of a fault map.
func faultyBlocks(fm cache.FaultMap) int {
	n := 0
	for s := range fm {
		n += fm.NumFaulty(s)
	}
	return n
}

func TestSampleFaultMapStatistics(t *testing.T) {
	cfg := cache.PaperConfig()
	m := Model{Pfail: 0, PBF: 0.25}
	rng := rand.New(rand.NewSource(1))
	total := 0
	blocks := 0
	for i := 0; i < 2000; i++ {
		fm := m.SampleFaultMap(rng, cfg)
		total += faultyBlocks(fm)
		blocks += cfg.Sets * cfg.Ways
	}
	rate := float64(total) / float64(blocks)
	if math.Abs(rate-0.25) > 0.01 {
		t.Errorf("empirical fault rate %g, want ~0.25", rate)
	}
	zero := Model{PBF: 0}
	if fm := zero.SampleFaultMap(rng, cfg); faultyBlocks(fm) != 0 {
		t.Error("PBF=0 produced faults")
	}
}
