package dist

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzNew round-trips arbitrary point lists through New → Points:
// whatever bytes the fuzzer invents, New must either reject the input
// with an error or produce a well-formed distribution — sorted unique
// support, strictly positive atoms, unit mass — whose Points rebuild
// the identical distribution. No input may panic.
// FuzzCoarsenToWith feeds arbitrary byte-derived distributions and cap
// sizes to both coarsening strategies and checks the soundness
// contract that must hold for any input: the cap is respected, the
// support maximum survives, mass is conserved, and the exact
// distribution is stochastically dominated (mass only ever moved
// upward).
func FuzzCoarsenToWith(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 1}, uint8(1), false)
	seed := make([]byte, 45)
	for i := 8; i < len(seed); i += 9 {
		seed[i-1] = byte(i) // spread values
		seed[i] = byte(1 + i%7)
	}
	f.Add(seed, uint8(2), true)
	f.Add(seed, uint8(0), false)
	f.Fuzz(func(t *testing.T, data []byte, cap8 uint8, heaviest bool) {
		// Decode 9-byte records like FuzzNew: 8 bytes of value, 1 byte
		// of weight, normalized to unit mass.
		var pts []Point
		var sum float64
		for len(data) >= 9 {
			v := int64(binary.LittleEndian.Uint64(data[:8]))
			w := float64(data[8])
			pts = append(pts, Point{Value: v, Prob: w})
			sum += w
			data = data[9:]
		}
		if sum == 0 {
			return
		}
		for i := range pts {
			pts[i].Prob /= sum
		}
		d, err := New(pts)
		if err != nil {
			t.Fatalf("New rejected normalized input: %v", err)
		}
		maxSupport := 1 + int(cap8)
		strategy := CoarsenLeastError
		if heaviest {
			strategy = CoarsenKeepHeaviest
		}
		c := d.CoarsenToWith(maxSupport, strategy)
		if c.Len() > maxSupport {
			t.Fatalf("%v: support %d exceeds cap %d", strategy, c.Len(), maxSupport)
		}
		if c.Max() != d.Max() {
			t.Fatalf("%v: support maximum moved from %d to %d", strategy, d.Max(), c.Max())
		}
		if m := c.Mass(); math.Abs(m-1) > 1e-9 {
			t.Fatalf("%v: mass drifted to %g", strategy, m)
		}
		if !d.DominatedBy(c, 1e-12) {
			t.Fatalf("%v: coarsened distribution does not dominate the exact one", strategy)
		}
	})
}

func FuzzNew(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 1})
	// Two atoms with equal values (merge path) and one zero weight.
	seed := make([]byte, 27)
	seed[8], seed[17], seed[26] = 3, 5, 0
	f.Add(seed)
	f.Add([]byte{255, 255, 255, 255, 255, 255, 255, 255, 255, 0, 0, 0, 0, 0, 0, 0, 0, 128})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Decode 9-byte records: 8 bytes of value, 1 byte of weight.
		// Weights are normalized here so the input obeys the unit-mass
		// precondition; New still has to cope with duplicate values,
		// zero weights, and float rounding of the normalization.
		var pts []Point
		var sum float64
		for len(data) >= 9 {
			v := int64(binary.LittleEndian.Uint64(data[:8]))
			w := float64(data[8])
			pts = append(pts, Point{Value: v, Prob: w})
			sum += w
			data = data[9:]
		}
		if sum == 0 {
			// Only zero mass available: New must reject, not panic.
			if _, err := New(pts); err == nil {
				t.Fatal("New accepted zero total mass")
			}
			return
		}
		for i := range pts {
			pts[i].Prob /= sum
		}
		d, err := New(pts)
		if err != nil {
			t.Fatalf("New rejected normalized input: %v", err)
		}
		out := d.Points()
		if len(out) == 0 || len(out) > len(pts) {
			t.Fatalf("round-trip produced %d atoms from %d", len(out), len(pts))
		}
		var mass float64
		for i, p := range out {
			if p.Prob <= 0 {
				t.Fatalf("atom %d has non-positive mass %g", i, p.Prob)
			}
			if i > 0 && out[i-1].Value >= p.Value {
				t.Fatalf("support not strictly increasing at %d", i)
			}
			mass += p.Prob
		}
		if math.Abs(mass-1) > 1e-9 {
			t.Fatalf("mass %g lost in round-trip", mass)
		}
		// Points must rebuild the identical distribution.
		d2, err := New(out)
		if err != nil {
			t.Fatalf("New(Points()) failed: %v", err)
		}
		out2 := d2.Points()
		if len(out2) != len(out) {
			t.Fatalf("re-round-trip changed support size: %d vs %d", len(out2), len(out))
		}
		for i := range out {
			if out[i].Value != out2[i].Value || math.Abs(out[i].Prob-out2[i].Prob) > 1e-12 {
				t.Fatalf("re-round-trip changed atom %d: %v vs %v", i, out[i], out2[i])
			}
		}
	})
}
