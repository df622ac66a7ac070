package fault

import (
	"math"
	"testing"
)

func TestVoltageModelCalibration(t *testing.T) {
	m := DefaultVoltageModel()
	// The paper's [5] citation: pfail = 1e-3 at 0.5V (32nm).
	if got := m.Pfail(0.5); math.Abs(got-1e-3) > 1e-12 {
		t.Errorf("pfail(0.5V) = %g, want 1e-3", got)
	}
	// One decade per Decade volts.
	if got := m.Pfail(0.5 + m.Decade); math.Abs(got-1e-4) > 1e-12 {
		t.Errorf("pfail(Vmin+decade) = %g, want 1e-4", got)
	}
}

func TestVoltageMonotone(t *testing.T) {
	m := DefaultVoltageModel()
	prev := 2.0
	for v := 0.4; v <= 1.1; v += 0.05 {
		p := m.Pfail(v)
		if p > prev {
			t.Fatalf("pfail not decreasing at %gV", v)
		}
		if p < 0 || p > 1 {
			t.Fatalf("pfail(%gV) = %g outside [0,1]", v, p)
		}
		prev = p
	}
	// Deep undervolting clamps at 1.
	if got := m.Pfail(0.01); got != 1 {
		t.Errorf("pfail(0.01V) = %g, want 1 (clamped)", got)
	}
}
