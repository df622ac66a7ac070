package fault

import "math"

// Voltage-dependent failure model.
//
// The paper's introduction motivates the fault model partly through
// dynamic voltage and frequency scaling: "when using DVFS, SRAM cells
// may begin to fail if the voltage is reduced too much. In [5] the
// predicted pfail for 32nm technology is 1e-3 at 0.5V" (Zhou et al.,
// ICCD 2010). This file provides an exponential cell-failure/voltage
// model calibrated against that citation, so the pfail sweep examples
// can be expressed in operating points rather than raw probabilities.
//
// The model is the standard low-voltage SRAM failure shape: the failure
// probability falls by a constant factor per Delta-V of margin,
//
//	pfail(V) = PfailAtVmin * 10^(-(V - Vmin) / Decade)
//
// clamped to [0, 1]. The default calibration puts 1e-3 at 0.5V and
// roughly 1e-9 at 0.9V nominal — an illustrative slope consistent with
// published low-voltage failure curves, not a foundry model.

// VoltageModel maps supply voltage to per-bit failure probability.
type VoltageModel struct {
	// Vmin is the voltage at which PfailAtVmin holds (volts).
	Vmin float64
	// PfailAtVmin is the per-bit failure probability at Vmin.
	PfailAtVmin float64
	// Decade is the voltage increase that reduces pfail tenfold (volts).
	Decade float64
}

// DefaultVoltageModel returns the calibration described in the package
// comment: pfail(0.5V) = 1e-3 (the paper's [5] citation), one decade
// per ~67mV.
func DefaultVoltageModel() VoltageModel {
	return VoltageModel{Vmin: 0.5, PfailAtVmin: 1e-3, Decade: 0.0667}
}

// Pfail returns the per-bit failure probability at the given supply
// voltage. Voltages below Vmin extrapolate upward (clamped to 1).
func (m VoltageModel) Pfail(voltage float64) float64 {
	p := m.PfailAtVmin * math.Pow(10, -(voltage-m.Vmin)/m.Decade)
	if p > 1 {
		return 1
	}
	if p < 0 || math.IsNaN(p) {
		return 0
	}
	return p
}
