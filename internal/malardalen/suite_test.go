package malardalen

import (
	"testing"

	"repro/internal/cache"
)

func TestSuiteComplete(t *testing.T) {
	names := Names()
	if len(names) != 25 {
		t.Fatalf("suite has %d benchmarks, want 25 (paper Section IV.A)", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate name %s", n)
		}
		seen[n] = true
	}
}

func TestAllBuildAndValidate(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			p, err := Get(name)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Validate(); err != nil {
				t.Fatal(err)
			}
			if p.Name != name {
				t.Errorf("program name %q != benchmark name %q", p.Name, name)
			}
			if p.NumInstructions() < 10 {
				t.Errorf("suspiciously small program: %d instructions", p.NumInstructions())
			}
			// Traces must terminate (structural sanity of loops).
			first := func(_ int, succs []int) int { return succs[0] }
			tr, err := p.Trace(first, 5_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if len(tr) == 0 {
				t.Error("empty trace")
			}
		})
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("dijkstra"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestMustGetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustGet did not panic on unknown name")
		}
	}()
	MustGet("unknown")
}

// TestSizeSpread checks the suite spans the code-size spectrum the
// categories need. Like the real Mälardalen binaries at gcc -O0, every
// program carries substantial once-executed code, so total sizes all
// exceed the cache; what distinguishes the categories is the span from
// barely-above-cache programs (whose hot loops are tiny and resident) to
// programs several times the cache (streaming). We assert that span.
func TestSizeSpread(t *testing.T) {
	cfg := cache.PaperConfig()
	min, max := 1<<30, 0
	large := 0
	for _, name := range Names() {
		p := MustGet(name)
		bytes := p.CodeBytes()
		if bytes < min {
			min = bytes
		}
		if bytes > max {
			max = bytes
		}
		if bytes > 2*cfg.SizeBytes() {
			large++
		}
		t.Logf("%-14s %5d bytes (%d instructions)", p.Name, bytes, p.NumInstructions())
	}
	if max < 3*min {
		t.Errorf("size span too narrow: min %dB, max %dB", min, max)
	}
	if large < 4 {
		t.Errorf("only %d benchmarks above twice the cache size; category 1 needs more", large)
	}
	if min < cfg.SizeBytes()/2 {
		t.Logf("note: smallest benchmark %dB is below half the cache", min)
	}
}
