package dist

// The lazy-invalidation heap engine, kept as the oracle the threshold
// phases of coarsenLeastErrorCapped are pinned to bitwise
// (TestCoarsenLeastErrorEnginesAgree, FuzzCoarsenLeastErrorEngines). It
// pushes a fresh candidate whenever a pair changes and skips the stale
// ones on pop, so it merges one pair at a time in the (cost, left)
// order of the current eligible pairs by construction — the greedy
// sequence the phases must reproduce. Its uncapped fallback recurses
// into itself, so the oracle shares no merge code with the engine it
// checks.

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// mergeCand is one candidate adjacent merge: atom left into its
// current right neighbor, at the exceedance-area cost recorded when
// the candidate was pushed. Stale candidates (the pair changed since)
// are recognized by the version stamp and skipped on pop.
//
// Candidates live in a flat min-heap ordered by (cost, left) —
// maintained with the package's shared siftDownFunc instead of
// container/heap, whose interface methods box every popped element.
type mergeCand struct {
	cost float64
	left int
	ver  uint32
}

// mergeCandLess orders candidates by cost, ties broken by the left
// index so the merge sequence — and therefore the result — is
// deterministic.
func mergeCandLess(a, b mergeCand) bool {
	if a.cost != b.cost {
		return a.cost < b.cost
	}
	return a.left < b.left
}

// coarsenLeastErrorLazy is the reference greedy least-error merge: a
// doubly linked list of live atoms plus a lazily invalidated min-heap
// of adjacent-pair merge costs. Each merge moves the left atom's
// (accumulated) mass to its right neighbor, exactly the upward
// direction the soundness contract requires; the rightmost atom has no
// right neighbor, so the support maximum can never move.
//
// maxGap additionally bounds every merged run's value span: a merge is
// eligible only while destination − (smallest value folded into the
// run) stays within maxGap, so no exceedance quantile — at any
// probability, however deep in the tail — can inflate by more than
// maxGap. ConvolveAllWith's in-tree mode relies on this: its soft passes
// pre-thin the operands' tail dust, and on such pre-thinned supports
// the uncapped greedy engine's cost equilibrium rises until it flings
// whole near-massless tail bands into the support maximum (exactly the
// keep-heaviest failure mode the least-error scheme exists to avoid).
// With the cap the engine freezes the already-sparse tail and spends
// its merges on the dense body instead. When the cap leaves too few
// eligible merges to reach target (sparse supports clustered wider
// than maxGap), the engine finishes with one uncapped pass over the
// survivors — the support bound is the contract, the span cap is best
// effort.
//
// Eligibility is checked once, when a candidate is pushed: any change
// to a pair — partner, accumulated mass, and with it the run's span —
// bumps ver and re-pushes, so a non-stale candidate's pair is in
// exactly the state it was pushed in, and maxGap = +Inf short-circuits
// the check for the classic engine.
func (d *Dist) coarsenLeastErrorLazy(target int, maxGap float64) *Dist {
	n := len(d.values)
	mass := make([]float64, n)
	copy(mass, d.probs)
	low := make([]float64, n) // smallest original value folded into atom i
	for i, v := range d.values {
		low[i] = float64(v)
	}
	next := make([]int, n)
	prev := make([]int, n)
	ver := make([]uint32, n)
	removed := make([]bool, n)
	for i := range next {
		next[i] = i + 1
		prev[i] = i - 1
	}
	h := make([]mergeCand, 0, n)
	// The gap is computed in float64 (values are sorted, but the int64
	// difference of two extreme values may not fit int64); the cost is
	// a merge-ordering heuristic, so the rounding is harmless.
	append_ := func(i int) {
		j := next[i]
		if float64(d.values[j])-low[i] > maxGap {
			return // run span cap: this merge would travel too far
		}
		h = append(h, mergeCand{
			cost: mass[i] * (float64(d.values[j]) - float64(d.values[i])),
			left: i,
			ver:  ver[i],
		})
	}
	push := func(i int) {
		append_(i)
		for c := len(h) - 1; c > 0; {
			p := (c - 1) / 2
			if !mergeCandLess(h[c], h[p]) {
				break
			}
			h[c], h[p] = h[p], h[c]
			c = p
		}
	}
	for i := 0; i < n-1; i++ {
		append_(i)
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDownFunc(h, i, mergeCandLess)
	}
	pop := func() mergeCand {
		top := h[0]
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		siftDownFunc(h, 0, mergeCandLess)
		return top
	}
	// Invariant: every live adjacent pair (i, next[i]) whose merge is
	// span-eligible has at least one heap candidate stamped with the
	// current ver[i]; any change to the pair (partner or mass) bumps
	// ver[i] and re-pushes. Without a span cap there is always a live
	// pair while alive > target >= 1, so the heap runs dry only when
	// the cap has frozen every remaining pair.
	alive := n
	for alive > target && len(h) > 0 {
		c := pop()
		if c.ver != ver[c.left] {
			continue // stale: the pair changed after this candidate was pushed
		}
		i := c.left
		j := next[i]
		mass[j] += mass[i]
		if low[i] < low[j] {
			low[j] = low[i]
		}
		removed[i] = true
		ver[i]++ // i is gone: invalidate (i, j)
		ver[j]++ // j's mass grew: invalidate (j, next[j])
		if p := prev[i]; p >= 0 {
			next[p] = j
			prev[j] = p
			ver[p]++ // p's partner changed: invalidate (p, i)
			push(p)
		} else {
			prev[j] = -1
		}
		if next[j] < n {
			push(j)
		}
		alive--
	}
	values := make([]int64, 0, alive)
	probs := make([]float64, 0, alive)
	for i := 0; i < n; i++ {
		if !removed[i] {
			values = append(values, d.values[i])
			probs = append(probs, mass[i])
		}
	}
	if alive > target {
		// The span cap ran the heap dry early: finish uncapped on the
		// survivors so the support bound always holds.
		return fromSorted(values, probs).coarsenLeastErrorLazy(target, math.Inf(1))
	}
	return fromSorted(values, probs)
}

// requireSameDist fails unless got and want are the same distribution
// bit for bit: support, probabilities and ccdf.
func requireSameDist(t *testing.T, label string, got, want *Dist) {
	t.Helper()
	if len(got.values) != len(want.values) {
		t.Fatalf("%s: %d atoms, want %d", label, len(got.values), len(want.values))
	}
	for i := range want.values {
		if got.values[i] != want.values[i] ||
			math.Float64bits(got.probs[i]) != math.Float64bits(want.probs[i]) ||
			math.Float64bits(got.ccdf[i]) != math.Float64bits(want.ccdf[i]) {
			t.Fatalf("%s: atom %d is (%d, %g, ccdf %g), want (%d, %g, ccdf %g)", label, i,
				got.values[i], got.probs[i], got.ccdf[i], want.values[i], want.probs[i], want.ccdf[i])
		}
	}
}

// TestCoarsenLeastErrorEnginesAgree pins the phase engine to the
// lazy-heap oracle bitwise on the shapes where the two could part:
// equal-cost ties (decided by the left index alone, also where a
// phase's threshold falls inside a run of them), masses down to the
// smallest subnormal, chains whose merges cascade through one phase
// after another, the first atom merging away, finite span caps that
// freeze pairs for good (also in the middle of a phase), caps that
// leave every eligible pair under the threshold, and caps that leave
// no eligible pair so the uncapped fallback finishes the job.
func TestCoarsenLeastErrorEnginesAgree(t *testing.T) {
	raw := func(values []int64, probs []float64) *Dist { return fromSorted(values, probs) }
	// uniform: n equally spaced atoms of equal mass — every initial
	// cost ties, and so do many re-keyed ones.
	uniform := func(n int) *Dist {
		vs := make([]int64, n)
		ps := make([]float64, n)
		for i := range vs {
			vs[i] = int64(10 * i)
			ps[i] = 1 / float64(n)
		}
		return raw(vs, ps)
	}
	// subnormalTail: masses halving every few atoms from 1/2 down past
	// the normal range to 5e-324, on a jittered value grid.
	subnormalTail := func() *Dist {
		var vs []int64
		var ps []float64
		for i, v := 0, int64(0); ; i++ {
			p := math.Ldexp(1, -1-16*i)
			if p == 0 {
				p = math.SmallestNonzeroFloat64
			}
			vs = append(vs, v)
			ps = append(ps, p)
			if p == math.SmallestNonzeroFloat64 {
				break
			}
			v += int64(1 + i%5)
		}
		return raw(vs, ps)
	}
	// clusters: tight groups of atoms separated by wide gaps, so a span
	// cap between the two scales freezes every cross-cluster pair.
	clusters := func(groups, per int) *Dist {
		var vs []int64
		var ps []float64
		for g := 0; g < groups; g++ {
			for k := 0; k < per; k++ {
				vs = append(vs, int64(g*10_000+k*(1+g%3)))
				ps = append(ps, 1/float64(groups*per))
			}
		}
		return raw(vs, ps)
	}
	// chain: a stride-100 support whose merge costs rise (or fall) from
	// left to right, so only one pair at a time is a local minimum.
	chain := func(n int, rising bool) *Dist {
		vs := make([]int64, n)
		ps := make([]float64, n)
		for i := range vs {
			vs[i] = int64(100 * i)
			w := i + 1
			if !rising {
				w = n - i
			}
			ps[i] = float64(w) / float64(n*(n+1)/2)
		}
		return raw(vs, ps)
	}
	// tieRun: 50 pairs of distinct small costs, then 100 of one equal
	// cost, then 50 larger ones. Coarsening 201 atoms to 101 puts the
	// first phase's threshold inside the run of equal costs, so which
	// of them merge is decided by the left index alone.
	tieRun := func() *Dist {
		vs := make([]int64, 201)
		ps := make([]float64, 201)
		for i := range vs {
			vs[i] = int64(10 * i)
			switch {
			case i < 50:
				ps[i] = math.Ldexp(float64(i+1), -16)
			case i < 150:
				ps[i] = math.Ldexp(1, -9)
			default:
				ps[i] = math.Ldexp(float64(i), -15)
			}
		}
		return raw(vs, ps)
	}
	fuzzHead, fuzzTarget, fuzzGap := fuzzCoarsenInput(
		[]byte("00\x00\x00\x00\x00\x00\x00\x00\x000000\x00000\x0000\x000000000"), 'L', 2)
	bench := benchDist(5000, 21)
	rng := rand.New(rand.NewSource(7))
	randomWide := func(n int) *Dist {
		vs := make([]int64, n)
		ps := make([]float64, n)
		v := int64(0)
		for i := range vs {
			v += int64(1 + rng.Intn(4)*rng.Intn(300))
			vs[i] = v
			// Quantized masses and gaps make exact cost ties common.
			ps[i] = math.Ldexp(float64(1+rng.Intn(4)), -rng.Intn(1060)-12)
		}
		return raw(vs, ps)
	}
	cases := []struct {
		name   string
		d      *Dist
		target int
		maxGap float64
	}{
		{"head-merges-first", fuzzHead, fuzzTarget, fuzzGap},
		{"chain-rising", chain(3000, true), 100, math.Inf(1)},
		{"chain-falling", chain(3000, false), 100, math.Inf(1)},
		{"chain-rising-freezes-mid-phase", chain(3000, true), 100, 450},
		{"threshold-in-tie-run", tieRun(), 101, math.Inf(1)},
		{"every-eligible-pair-under-inf", clusters(6, 10), 6, 200},
		{"fallback-after-cap-runs-dry", clusters(6, 10), 4, 200},
		{"ties-uncapped", uniform(200), 17, math.Inf(1)},
		{"ties-capped", uniform(200), 40, 35},
		{"subnormal-uncapped", subnormalTail(), 9, math.Inf(1)},
		{"subnormal-capped", subnormalTail(), 20, 12},
		{"freeze-cross-cluster", clusters(12, 40), 60, 200},
		{"dry-heap-fallback", clusters(12, 40), 8, 200},
		{"dry-at-start", clusters(6, 5), 4, 0.5},
		{"random-wide-uncapped", randomWide(3000), 300, math.Inf(1)},
		{"random-wide-capped", randomWide(3000), 300, 2000},
		{"tail-dists-fold", foldConvolve(tailDists(t, 8), 0), 256, math.Inf(1)},
		{"bench-shape", bench, 1024, softMaxGap(bench.values, 1024)},
	}
	s := new(scratch)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.d.Len() <= tc.target {
				t.Fatalf("corpus bug: %d atoms do not exceed target %d", tc.d.Len(), tc.target)
			}
			got := s.coarsenCapped(tc.d, tc.target, tc.maxGap)
			want := tc.d.coarsenLeastErrorLazy(tc.target, tc.maxGap)
			requireSameDist(t, tc.name, got, want)
			if got.Len() > tc.target {
				t.Fatalf("support %d exceeds target %d", got.Len(), tc.target)
			}
		})
	}
}

// fuzzCoarsenInput decodes FuzzCoarsenLeastErrorEngines' input: 4-byte
// records of value gap, mass exponent and mass mantissa (masses range
// from 2^-9 down to the smallest subnormal; repeated records make exact
// cost ties), an arbitrary target, and a span cap from none (gap8 = 0)
// to tighter than any gap. d is nil when fewer than two records fit.
func fuzzCoarsenInput(data []byte, target8, gap8 uint8) (d *Dist, target int, maxGap float64) {
	var vs []int64
	var ps []float64
	v := int64(0)
	for len(data) >= 4 && len(vs) < 256 {
		v += 1 + int64(binary.LittleEndian.Uint16(data[:2]))
		e := int(data[2]) * 1065 / 255
		vs = append(vs, v)
		ps = append(ps, math.Ldexp(1+float64(data[3])/256, -9-e))
		data = data[4:]
	}
	if len(vs) < 2 {
		return nil, 0, 0
	}
	maxGap = math.Inf(1)
	if gap8 != 0 {
		maxGap = float64(gap8) * 256
	}
	return fromSorted(vs, ps), 1 + int(target8)%(len(vs)-1), maxGap
}

// FuzzCoarsenLeastErrorEngines pins the phase engine to the lazy-heap
// oracle bitwise on arbitrary supports (see fuzzCoarsenInput).
func FuzzCoarsenLeastErrorEngines(f *testing.F) {
	f.Add(make([]byte, 64), uint8(3), uint8(0))
	f.Add([]byte{1, 0, 255, 0, 2, 255, 255, 9, 3, 10, 0, 1, 200, 128, 7, 7, 1, 255, 0, 0}, uint8(1), uint8(3))
	f.Add([]byte{9, 1, 2, 3, 9, 1, 2, 3, 9, 1, 2, 3, 200, 40, 5, 5, 1, 1, 1, 1, 1, 1, 1, 1}, uint8(2), uint8(1))
	// The first atom merges away: the engine must follow the list head.
	f.Add([]byte("00\x00\x00\x00\x00\x00\x00\x00\x000000\x00000\x0000\x000000000"), uint8('L'), uint8(2))
	s := new(scratch)
	f.Fuzz(func(t *testing.T, data []byte, target8, gap8 uint8) {
		d, target, maxGap := fuzzCoarsenInput(data, target8, gap8)
		if d == nil {
			return
		}
		requireSameDist(t, "capped engine", s.coarsenCapped(d, target, maxGap),
			d.coarsenLeastErrorLazy(target, maxGap))
	})
}
