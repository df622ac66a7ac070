package dist

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestCoarsenStrategyStringParse(t *testing.T) {
	for _, s := range []CoarsenStrategy{CoarsenLeastError, CoarsenKeepHeaviest} {
		got, err := ParseCoarsenStrategy(s.String())
		if err != nil || got != s {
			t.Errorf("ParseCoarsenStrategy(%q) = %v, %v", s.String(), got, err)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("Validate(%v) = %v", s, err)
		}
	}
	if _, err := ParseCoarsenStrategy("bogus"); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Errorf("ParseCoarsenStrategy(bogus) err = %v", err)
	}
	if err := CoarsenStrategy(42).Validate(); err == nil {
		t.Error("Validate(42) accepted an unknown strategy")
	}
	if got := CoarsenStrategy(42).String(); !strings.Contains(got, "42") {
		t.Errorf("String(42) = %q", got)
	}
}

func TestCoarsenToWithUnknownStrategyPanics(t *testing.T) {
	d := mustNew(t, []Point{{0, 0.5}, {1, 0.3}, {2, 0.2}})
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "strategy") {
			t.Fatalf("recover() = %v, want strategy panic", r)
		}
	}()
	d.CoarsenToWith(2, CoarsenStrategy(42))
}

// TestGoldenCoarsenStrategies pins both schemes on hand-built
// distributions where they disagree.
func TestGoldenCoarsenStrategies(t *testing.T) {
	// A heavy bulk at the bottom and a light, widely spaced tail.
	// Keep-heaviest retains the three heaviest atoms (0, 1, 1000) and
	// collapses the whole tail into the maximum; least-error merges the
	// cheap adjacent tail pairs and keeps a tail foothold.
	d := mustNew(t, []Point{
		{0, 0.60}, {1, 0.30}, {10, 0.06}, {12, 0.03}, {900, 0.006}, {1000, 0.004},
	})
	kh := d.CoarsenToWith(3, CoarsenKeepHeaviest)
	want := []Point{{0, 0.60}, {1, 0.30}, {1000, 0.1}}
	if kh.Len() != len(want) {
		t.Fatalf("keep-heaviest Len = %d, want %d", kh.Len(), len(want))
	}
	for i, p := range kh.Points() {
		if p.Value != want[i].Value || math.Abs(p.Prob-want[i].Prob) > 1e-15 {
			t.Errorf("keep-heaviest atom %d = %v, want %v", i, p, want[i])
		}
	}
	// Least-error merge sequence by incremental area: (10,12) costs
	// 0.06*2=0.12... the cheapest pairs are (900,1000): 0.006*100=0.6?
	// No — costs: (0,1)=0.6, (1,10)=2.7, (10,12)=0.12, (12,900)=26.6,
	// (900,1000)=0.6. First merge (10,12) -> mass(12)=0.09; then
	// (0,1)=0.6 ties (900,1000)=0.6, left index 0 wins: merge 0 into 1.
	le := d.CoarsenToWith(4, CoarsenLeastError)
	wantLE := []Point{{1, 0.90}, {12, 0.09}, {900, 0.006}, {1000, 0.004}}
	if le.Len() != len(wantLE) {
		t.Fatalf("least-error Len = %d, want %d: %v", le.Len(), len(wantLE), le.Points())
	}
	for i, p := range le.Points() {
		if p.Value != wantLE[i].Value || math.Abs(p.Prob-wantLE[i].Prob) > 1e-15 {
			t.Errorf("least-error atom %d = %v, want %v", i, p, wantLE[i])
		}
	}
	// The deep-tail quantile: least-error keeps 900 as the 1e-2
	// exceedance bound, keep-heaviest(3) inflates it to 1000.
	if got := le.QuantileExceedance(0.009); got != 900 {
		t.Errorf("least-error QuantileExceedance(0.009) = %d, want 900", got)
	}
	if got := kh.QuantileExceedance(0.009); got != 1000 {
		t.Errorf("keep-heaviest QuantileExceedance(0.009) = %d, want 1000", got)
	}
}

// TestCoarsenNoBindIdentity: when the cap does not bind, both
// strategies return the receiver itself — results stay byte-identical
// to the uncoarsened distribution (the acceptance criterion that a
// strategy change cannot perturb configurations the cap never touched).
func TestCoarsenNoBindIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 50; iter++ {
		d := randomDist(t, rng, 40)
		for _, s := range []CoarsenStrategy{CoarsenLeastError, CoarsenKeepHeaviest} {
			if got := d.CoarsenToWith(d.Len(), s); got != d {
				t.Fatalf("%v with cap == Len did not return the receiver", s)
			}
			if got := d.CoarsenToWith(d.Len()+1+rng.Intn(100), s); got != d {
				t.Fatalf("%v with slack cap did not return the receiver", s)
			}
			if got := d.CoarsenToWith(0, s); got != d {
				t.Fatalf("%v with cap 0 did not return the receiver", s)
			}
		}
	}
}

// TestCoarsenStrategiesSound: the soundness contract holds for both
// strategies on random inputs — exceedance never decreases, the
// support maximum survives, mass is conserved, the cap is respected.
func TestCoarsenStrategiesSound(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for iter := 0; iter < 200; iter++ {
		d := randomDist(t, rng, 50)
		maxSupport := 1 + rng.Intn(d.Len())
		for _, s := range []CoarsenStrategy{CoarsenLeastError, CoarsenKeepHeaviest} {
			c := d.CoarsenToWith(maxSupport, s)
			if c.Len() > maxSupport {
				t.Fatalf("%v: support %d exceeds cap %d", s, c.Len(), maxSupport)
			}
			if c.Max() != d.Max() {
				t.Fatalf("%v: support maximum moved from %d to %d", s, d.Max(), c.Max())
			}
			if m := c.Mass(); math.Abs(m-1) > 1e-12 {
				t.Fatalf("%v: mass drifted to %g", s, m)
			}
			if !d.DominatedBy(c, 1e-15) {
				t.Fatalf("%v: coarsened distribution does not dominate the exact one", s)
			}
		}
	}
}

// tailDists builds FMM-shaped per-set penalty distributions: 5 atoms
// per set (a 4-way cache's f = 0..4 faulty blocks) weighted by the
// binomial faulty-way probabilities of equation 2 at pfail = 1e-4 and
// 128-bit blocks — the exact shape core.convolveFMM feeds the
// reduction. Values are fault-induced miss counts (the miss-penalty
// factor only scales the axis and no quantile ratio); the per-set
// range of up to ~800 misses matches a large working set mapping many
// blocks per set, which is what makes the exact 256-set support
// (~36000 distinct sums) exceed the default 4096-point cap by ~9x.
func tailDists(tb testing.TB, sets int) []*Dist {
	tb.Helper()
	pbf := 1 - math.Pow(1-1e-4, 128) // equation 1
	pwf := make([]float64, 5)
	for f := 0; f < 5; f++ {
		pwf[f] = float64(binom4[f]) * math.Pow(pbf, float64(f)) * math.Pow(1-pbf, float64(4-f))
	}
	rng := rand.New(rand.NewSource(1))
	ds := make([]*Dist, sets)
	for s := range ds {
		pts := make([]Point, len(pwf))
		v := int64(0)
		for f := range pts {
			pts[f] = Point{Value: v, Prob: pwf[f]}
			v += int64(1 + rng.Intn(200))
		}
		d, err := New(pts)
		if err != nil {
			tb.Fatal(err)
		}
		ds[s] = d
	}
	return ds
}

var binom4 = [5]int{1, 4, 6, 4, 1}

// TestCoarsenLeastErrorTailFidelity is the headline golden test of the
// tail-faithful coarsening scheme: a 256-set configuration whose exact
// penalty distribution far exceeds the default 4096-point support cap.
// The deep-tail exceedance quantiles — the paper's deliverable — must
// stay within 2x of the uncapped-exact value under the new default
// scheme, while the legacy keep-heaviest scheme collapses the sub-cap
// tail into the support maximum and lands ~20x high at 1e-12 (pinned
// here as the regression the default fixes). Both must remain sound.
func TestCoarsenLeastErrorTailFidelity(t *testing.T) {
	if testing.Short() {
		t.Skip("computes a ~36000-atom exact reference distribution")
	}
	const defaultMaxSupport = 4096 // core.DefaultMaxSupport (no import cycle)
	ds := tailDists(t, 256)
	exact := ConvolveAllWith(ds, 0, 4, CoarsenLeastError) // cap disabled: exact
	if exact.Len() <= defaultMaxSupport {
		t.Fatalf("test construction: exact support %d does not exceed the cap %d",
			exact.Len(), defaultMaxSupport)
	}
	le := ConvolveAllWith(ds, defaultMaxSupport, 4, CoarsenLeastError)
	kh := ConvolveAllWith(ds, defaultMaxSupport, 4, CoarsenKeepHeaviest)
	if !exact.DominatedBy(le, 1e-9) || !exact.DominatedBy(kh, 1e-9) {
		t.Fatal("a coarsened result does not dominate the exact distribution")
	}
	for _, target := range []float64{1e-9, 1e-12, 1e-15} {
		exactQ := exact.QuantileExceedance(target)
		leQ := le.QuantileExceedance(target)
		khQ := kh.QuantileExceedance(target)
		t.Logf("target %g: exact %d, least-error %d (%.2fx), keep-heaviest %d (%.2fx)",
			target, exactQ, leQ, float64(leQ)/float64(exactQ), khQ, float64(khQ)/float64(exactQ))
		if leQ < exactQ {
			t.Errorf("target %g: least-error quantile %d below exact %d (unsound)", target, leQ, exactQ)
		}
		if float64(leQ) > 2*float64(exactQ) {
			t.Errorf("target %g: least-error quantile %d more than 2x exact %d", target, leQ, exactQ)
		}
	}
	// Pin the legacy scheme's deep-tail pessimism at 1e-12 — the
	// regression this PR fixes. ~20x in practice; assert a conservative
	// floor so the contrast cannot silently disappear.
	exactQ := exact.QuantileExceedance(1e-12)
	khQ := kh.QuantileExceedance(1e-12)
	if float64(khQ) < 10*float64(exactQ) {
		t.Errorf("keep-heaviest at 1e-12 is only %.2fx exact (%d vs %d); the legacy deep-tail collapse disappeared — update the docs and this pin",
			float64(khQ)/float64(exactQ), khQ, exactQ)
	}
}

// TestCoarsenLeastErrorTailFidelityInTree is the golden test of the
// in-tree coarsening regime specifically: on the same deeply over-cap
// 256-set configuration, the optimized reduction must actually arm its
// budgeted in-tree coarsening (the exact support is ~25x the cap, far
// past the arming threshold), stay within the advertised area budget,
// and still deliver deep-tail quantiles within 1.10x of uncapped-exact
// at every certification target — measured ~1.01x, pinned with head
// room so a tail-fidelity regression in the soft passes, the span caps
// or the capped final coarsening cannot land silently. The
// final-coarsen-only exact executor at the same cap is the control: it
// shows the fidelity the budget-free reference achieves, and the armed
// path must stay within 1.10x of IT as well (in-tree coarsening is a
// speed trade, not a precision cliff).
func TestCoarsenLeastErrorTailFidelityInTree(t *testing.T) {
	if testing.Short() {
		t.Skip("computes a ~36000-atom exact reference distribution")
	}
	const defaultMaxSupport = 4096 // core.DefaultMaxSupport (no import cycle)
	ds := tailDists(t, 256)
	if rb := reductionBound(canonicalSort(ds)); rb <= inTreeSlack*int64(defaultMaxSupport) {
		t.Fatalf("test construction: reductionBound %d does not arm in-tree coarsening at cap %d",
			rb, defaultMaxSupport)
	}
	exact := ConvolveAllWith(ds, 0, 4, CoarsenLeastError) // cap disabled: exact
	inTree, st, _ := convolveAllOpt(ds, defaultMaxSupport, 4, CoarsenLeastError, nil)
	if st.softBudget == 0 {
		t.Fatal("in-tree coarsening did not arm on the 256-set configuration")
	}
	if st.softSpent > st.softBudget {
		t.Fatalf("in-tree area spend %g exceeds the budget %g", st.softSpent, st.softBudget)
	}
	control := mustExact(t, ds, defaultMaxSupport, CoarsenLeastError)
	if !exact.DominatedBy(inTree, 1e-9) {
		t.Fatal("the armed result does not dominate the exact distribution")
	}
	for _, target := range []float64{1e-9, 1e-12, 1e-15} {
		exactQ := exact.QuantileExceedance(target)
		gotQ := inTree.QuantileExceedance(target)
		controlQ := control.QuantileExceedance(target)
		t.Logf("target %g: exact %d, in-tree %d (%.3fx), final-coarsen-only %d (%.3fx)",
			target, exactQ, gotQ, float64(gotQ)/float64(exactQ),
			controlQ, float64(controlQ)/float64(exactQ))
		if gotQ < exactQ {
			t.Errorf("target %g: in-tree quantile %d below exact %d (unsound)", target, gotQ, exactQ)
		}
		if float64(gotQ) > 1.10*float64(exactQ) {
			t.Errorf("target %g: in-tree quantile %d more than 1.10x exact %d (%.3fx)",
				target, gotQ, exactQ, float64(gotQ)/float64(exactQ))
		}
		if float64(gotQ) > 1.10*float64(controlQ) {
			t.Errorf("target %g: in-tree quantile %d more than 1.10x the final-coarsen-only control %d",
				target, gotQ, controlQ)
		}
	}
}
