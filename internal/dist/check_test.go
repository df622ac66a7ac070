package dist

import (
	"strings"
	"testing"
)

// TestPwcetcheckCatchesCorruptDist: under -tags pwcetcheck, feeding a
// hand-corrupted Dist (atoms out of order) into an operation must panic
// in the sanitizer instead of silently producing a wrong curve. Without
// the tag the test is skipped — the checks are compiled out there.
func TestPwcetcheckCatchesCorruptDist(t *testing.T) {
	if !checkEnabled {
		t.Skip("pwcetcheck tag not enabled; sanitizer assertions are compiled out")
	}
	corrupt := &Dist{
		values: []int64{10, 5}, // unsorted: violates the representation
		probs:  []float64{0.5, 0.5},
		ccdf:   []float64{0.5, 0},
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Convolve on a corrupted Dist did not panic under pwcetcheck")
		}
	}()
	_ = corrupt.Convolve(Degenerate(1))
}

// TestPwcetcheckCatchesBrokenCCDF: a ccdf that is not the suffix sum of
// probs (here: stale after a hypothetical in-place mutation) must be
// caught too.
func TestPwcetcheckCatchesBrokenCCDF(t *testing.T) {
	if !checkEnabled {
		t.Skip("pwcetcheck tag not enabled; sanitizer assertions are compiled out")
	}
	corrupt := &Dist{
		values: []int64{1, 2},
		probs:  []float64{0.5, 0.5},
		ccdf:   []float64{0.25, 0}, // suffix sum would be 0.5
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Convolve on a Dist with inconsistent ccdf did not panic under pwcetcheck")
		}
	}()
	_ = corrupt.Convolve(Degenerate(1))
}

// TestPwcetcheckCatchesCorruptReadOut: over-cap atoms that the
// coarsener merges straight from a scratch, before any Dist is built
// from them, are checked too. Each corruption here is one the merges
// would hide: the unsorted atom and the zero atom are merged away
// first, so only the check of coarsenAtoms's input can see them.
func TestPwcetcheckCatchesCorruptReadOut(t *testing.T) {
	if !checkEnabled {
		t.Skip("pwcetcheck tag not enabled; sanitizer assertions are compiled out")
	}
	for _, tc := range []struct {
		name   string
		values []int64
		probs  []float64
	}{
		{"unsorted", []int64{1, 3, 2, 100}, []float64{0.25, 0.25, 0.25, 0.25}},
		{"zero atom", []int64{1, 2, 3, 100}, []float64{0.5, 0, 0.25, 0.25}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "pwcetcheck: coarsenAtoms:") {
					t.Fatalf("recovered %q, want a coarsenAtoms pwcetcheck panic", msg)
				}
			}()
			new(scratch).coarsenAtoms(tc.values, tc.probs, coarsening{target: 2, strategy: CoarsenLeastError})
		})
	}
}
