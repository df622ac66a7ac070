package fault

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cache"
)

func TestKindStringParseRoundTrip(t *testing.T) {
	for _, k := range []Kind{KindPermanent, KindTransient, KindCombined} {
		got, err := ParseKind(k.String())
		if err != nil {
			t.Fatalf("ParseKind(%q): %v", k.String(), err)
		}
		if got != k {
			t.Fatalf("ParseKind(%q) = %v, want %v", k.String(), got, k)
		}
	}
	if _, err := ParseKind("lamda"); err == nil {
		t.Fatal("ParseKind accepted an unknown name")
	}
	if s := Kind(42).String(); s != "Kind(42)" {
		t.Fatalf("out-of-range Kind string = %q", s)
	}
}

func TestScenarioValidate(t *testing.T) {
	valid := []Scenario{
		Permanent{},
		Permanent{Pfail: 1e-4},
		Permanent{Pfail: 1},
		Transient{},
		Transient{Lambda: 1e-9},
		Combined{Pfail: 1e-4, Lambda: 1e-9},
	}
	for _, s := range valid {
		if err := s.Validate(); err != nil {
			t.Errorf("%v.Validate() = %v, want nil", s, err)
		}
	}
	invalid := []Scenario{
		Permanent{Pfail: -1e-9},
		Permanent{Pfail: 1.0000001},
		Permanent{Pfail: math.NaN()},
		Transient{Lambda: -1},
		Transient{Lambda: math.NaN()},
		Transient{Lambda: math.Inf(1)},
		Combined{Pfail: 2, Lambda: 0},
		Combined{Pfail: 0, Lambda: -1},
	}
	for _, s := range invalid {
		if err := s.Validate(); err == nil {
			t.Errorf("%#v.Validate() = nil, want error", s)
		}
	}
}

func TestScenarioComponents(t *testing.T) {
	cases := []struct {
		s          Scenario
		pf, lambda float64
	}{
		{Permanent{Pfail: 1e-4}, 1e-4, 0},
		{Transient{Lambda: 1e-9}, 0, 1e-9},
		{Combined{Pfail: 1e-3, Lambda: 1e-8}, 1e-3, 1e-8},
	}
	for _, tc := range cases {
		pf, la := Components(tc.s)
		if pf != tc.pf || la != tc.lambda {
			t.Errorf("Components(%v) = (%g, %g), want (%g, %g)", tc.s, pf, la, tc.pf, tc.lambda)
		}
	}
}

// Scenario values are comparable structs by design: they key memoized
// artifacts and deduplicate sweep grids directly.
func TestScenarioComparable(t *testing.T) {
	m := map[Scenario]int{
		Permanent{Pfail: 1e-4}:                1,
		Transient{Lambda: 1e-9}:               2,
		Combined{Pfail: 1e-4, Lambda: 1e-9}:   3,
		Combined{Pfail: 1e-4, Lambda: 2e-9}:   4,
		Combined{Pfail: 1.1e-4, Lambda: 1e-9}: 5,
	}
	if len(m) != 5 {
		t.Fatalf("scenario map collapsed to %d entries, want 5", len(m))
	}
	if m[Transient{Lambda: 1e-9}] != 2 {
		t.Fatal("scenario map lookup by equal value failed")
	}
}

func TestNewTransientModel(t *testing.T) {
	tm, err := NewTransientModel(1e-9, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	want := -math.Expm1(-1e-9 * 1e6)
	if tm.PMiss != want {
		t.Fatalf("PMiss = %g, want %g", tm.PMiss, want)
	}
	if tm.Lambda != 1e-9 || tm.Window != 1_000_000 {
		t.Fatalf("model did not echo its parameters: %+v", tm)
	}

	// Zero rate: upsets never happen.
	tm, err = NewTransientModel(0, 100)
	if err != nil || tm.PMiss != 0 {
		t.Fatalf("lambda=0: PMiss = %g, err = %v", tm.PMiss, err)
	}
	// Huge rate: probability saturates at exactly 1, never above.
	tm, err = NewTransientModel(1e30, math.MaxInt64)
	if err != nil || tm.PMiss != 1 {
		t.Fatalf("huge lambda: PMiss = %g, err = %v", tm.PMiss, err)
	}
	if _, err := NewTransientModel(-1, 100); err == nil {
		t.Fatal("negative lambda accepted")
	}
	if _, err := NewTransientModel(1e-9, 0); err == nil {
		t.Fatal("zero window accepted")
	}
}

// renormalize edge cases (satellite): the degenerate guards must leave
// hopeless inputs untouched, and regular pwf vectors must come out
// exactly unit-sum.
func TestRenormalizeEdgeCases(t *testing.T) {
	// All-zero vector: no rescale is possible; left as-is.
	zeros := []float64{0, 0, 0}
	renormalize(zeros)
	if !reflect.DeepEqual(zeros, []float64{0, 0, 0}) {
		t.Fatalf("all-zero vector mutated: %v", zeros)
	}
	// NaN/Inf sums are degenerate too.
	nan := []float64{math.NaN(), 0.5}
	renormalize(nan)
	if !math.IsNaN(nan[0]) || nan[1] != 0.5 {
		t.Fatalf("NaN vector mutated: %v", nan)
	}
	inf := []float64{math.Inf(1), 0.5}
	renormalize(inf)
	if !math.IsInf(inf[0], 1) || inf[1] != 0.5 {
		t.Fatalf("Inf vector mutated: %v", inf)
	}

	// Single atom: rescales to exactly 1.
	single := []float64{0.3}
	renormalize(single)
	if single[0] != 1 {
		t.Fatalf("single atom = %g, want exactly 1", single[0])
	}

	// Already exact: bit-identical passthrough.
	exact := []float64{0.5, 0.25, 0.25}
	want := append([]float64(nil), exact...)
	renormalize(exact)
	if !reflect.DeepEqual(exact, want) {
		t.Fatalf("already-exact vector changed: %v", exact)
	}

	// A drifted vector lands on exactly 1.
	drift := []float64{1.0 / 3, 1.0 / 3, 1.0 / 3}
	renormalize(drift)
	if got := forwardSum(drift); got != 1 {
		t.Fatalf("renormalized sum = %g (off by %g), want exactly 1", got, got-1)
	}

	// Real pwf vectors across magnitudes end exactly unit-sum.
	for _, pbf := range []float64{1e-12, 1e-6, 1e-3, 0.1, 0.9} {
		for _, ways := range []int{2, 4, 8} {
			if got := forwardSum(PWF(ways, pbf)); got != 1 {
				t.Errorf("PWF(%d, %g) sum = %g, want exactly 1", ways, pbf, got)
			}
			if got := forwardSum(PWFReliableWay(ways, pbf)); got != 1 {
				t.Errorf("PWFReliableWay(%d, %g) sum = %g, want exactly 1", ways, pbf, got)
			}
		}
	}
}

// exactifyAt edge cases (satellite): entries that cannot host the
// adjustment must be restored bit-identically, and a feasible entry must
// land the forward sum on exactly 1.
func TestExactifyAtEdgeCases(t *testing.T) {
	// Non-positive and non-finite entries are rejected outright.
	for _, bad := range []float64{0, -0.5, math.NaN(), math.Inf(1)} {
		out := []float64{bad, 0.5}
		if exactifyAt(out, 0) {
			t.Errorf("exactifyAt succeeded on entry %g", bad)
		}
		if b, w := math.Float64bits(out[0]), math.Float64bits(bad); b != w {
			t.Errorf("rejected entry mutated: %g -> %g", bad, out[0])
		}
	}

	// An entry far too small to move the sum: failure, entry restored.
	out := []float64{5e-324, 0.75}
	if exactifyAt(out, 0) {
		t.Fatal("exactifyAt moved the sum with a subnormal entry")
	}
	if out[0] != 5e-324 {
		t.Fatalf("failed attempt did not restore the entry: %g", out[0])
	}

	// Already exact: immediate success, nothing moves.
	out = []float64{0.5, 0.5}
	if !exactifyAt(out, 0) {
		t.Fatal("exactifyAt failed on an already-exact vector")
	}
	if out[0] != 0.5 || out[1] != 0.5 {
		t.Fatalf("exact vector mutated: %v", out)
	}

	// A one-ulp drift is absorbed by the large entry.
	out = []float64{ulpOffset(0.5, -1), 0.5}
	if !exactifyAt(out, 1) {
		t.Fatal("exactifyAt could not absorb a one-ulp drift")
	}
	if got := forwardSum(out); got != 1 {
		t.Fatalf("sum after exactifyAt = %g, want exactly 1", got)
	}
}

// SampleFaultMap must be a pure function of (model, rng stream):
// identical seeds yield identical maps, draw after draw (satellite
// regression — the Monte-Carlo validator's reproducibility rests on it).
func TestSampleFaultMapDeterministic(t *testing.T) {
	cfg := cache.PaperConfig()
	m, err := NewModel(1e-3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const seed, draws = 12345, 50
	a, b := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	total := 0
	for i := 0; i < draws; i++ {
		fa, fb := m.SampleFaultMap(a, cfg), m.SampleFaultMap(b, cfg)
		if !reflect.DeepEqual(fa, fb) {
			t.Fatalf("draw %d: same seed produced different fault maps", i)
		}
		total += faultyBlocks(fa)
	}
	// Regression pin: the exact faulty-block count of this seeded stream.
	// A change here means the sampling algorithm consumed the rng
	// differently — which silently invalidates recorded validation runs.
	const wantTotal = 381
	if total != wantTotal {
		t.Fatalf("seeded stream drew %d faulty blocks total, want %d", total, wantTotal)
	}
}
