// Support coarsening: bounding a distribution's support size without
// ever under-approximating any exceedance probability.
//
// # Soundness contract (both strategies)
//
// Coarsening merges atoms by moving mass to a LARGER support value and
// never anywhere else, so for every threshold t the coarsened
// exceedance probability P(X > t) is >= the exact one: the result is a
// sound (pessimistic) upper bound on the exceedance curve, the support
// maximum is always retained, and total mass is conserved. Both
// strategies are the identity — the receiver itself, bit for bit —
// whenever the support already fits the cap, so results only change at
// all when the cap binds.
//
// # CoarsenLeastError (default)
//
// Greedy adjacent merge by least exceedance-curve error. Merging atom i
// upward into its right neighbor j raises the exceedance curve by
// exactly mass(i) on the interval [v_i, v_j) and nowhere else, adding
// area mass(i)·(v_j − v_i) between the coarse and exact curves. The
// scheme repeatedly merges the adjacent pair with the smallest such
// incremental area (ties to the leftmost pair), so light, closely
// spaced atoms — the deep tail dust of a convolved fault distribution —
// collapse locally instead of being flung to the support maximum. The
// engine runs that greedy sequence in a few threshold phases, each
// merging every pair at or below a selected cost that is cheaper than
// both neighbouring pairs: O(n log n) in the worst case, and bit for
// bit the one-pop-at-a-time greedy (see coarsenLeastErrorCapped). The
// total area added to the exceedance curve is the sum of the chosen
// incremental costs; each individual exceedance probability grows by
// at most the mass merged across its threshold, and a quantile read at
// probability p grows by at most the span of the merged run that
// straddles the exact quantile. In the pWCET pipeline this keeps the
// deep-tail quantiles (the 1e-9..1e-15 certification targets) within a
// small factor of the uncapped-exact values even when the cap binds
// hard (pinned within 2x at 1e-12 on a 256-set configuration by
// TestCoarsenLeastErrorTailFidelity).
//
// # CoarsenKeepHeaviest (legacy)
//
// The PR-1 scheme: keep the maxSupport heaviest atoms in place and
// merge each lighter atom upward into the nearest retained atom above
// it. Exact at every threshold at or above the lightest retained atom
// when the dropped mass is negligible there — which is why it
// reproduces the exact quantiles at the paper's 16-set configurations,
// where the cap barely binds. Its failure mode is the deep tail: the
// tail atoms are the lightest, so once the cap binds hard (far more
// distinct sums than the cap accommodates, e.g. 256-set caches) every
// sub-cap tail atom merges all the way into the support maximum and
// the deepest quantiles jump to Max() — still sound, but ~20x
// pessimistic at 1e-12 (pinned as the regression the default scheme
// fixes, same test as above).
//
// # In-tree variants (the ConvolveAllWith hot path)
//
// The monoid ConvolveAllWith executor coarsens inside the merge tree and
// uses two specialized engines built on the same soundness contract:
// coarsenSoft, a linear-time threshold sweep that thins merge operands
// under an explicit exceedance-area budget and a maximum merge-run
// span (it stops early rather than overspend — the support target is
// best-effort), and coarsenLeastErrorCapped, the greedy merge above
// with a run-span eligibility cap that keeps the final hard coarsen
// from collapsing a pre-thinned tail into the support maximum. The
// classic engines remain the only ones reachable through the public
// CoarsenToWith API; see the method comment and reduce.go
// for how the executor splits its error budget across tree nodes.
package dist

import (
	"fmt"
	"math"
	"sort"
)

// CoarsenStrategy selects how CoarsenToWith reduces an over-cap
// support. Both strategies obey the same soundness contract (see the
// file comment); they differ only in which atoms merge and therefore
// in how tight the coarsened exceedance curve stays.
type CoarsenStrategy int

const (
	// CoarsenLeastError greedily merges the adjacent atom pair whose
	// upward merge adds the least area to the exceedance curve. The
	// default: tail-faithful when the cap binds, identical to
	// CoarsenKeepHeaviest (the identity) when it does not.
	CoarsenLeastError CoarsenStrategy = iota
	// CoarsenKeepHeaviest keeps the heaviest atoms and merges each
	// lighter atom into the nearest retained atom above it — the legacy
	// scheme, kept for reproducing pre-tail-faithful results.
	CoarsenKeepHeaviest
)

// String names the strategy (the spelling ParseCoarsenStrategy accepts).
func (s CoarsenStrategy) String() string {
	switch s {
	case CoarsenLeastError:
		return "least-error"
	case CoarsenKeepHeaviest:
		return "keep-heaviest"
	default:
		return fmt.Sprintf("coarsen-strategy(%d)", int(s))
	}
}

// Validate rejects values that are not a known strategy.
func (s CoarsenStrategy) Validate() error {
	switch s {
	case CoarsenLeastError, CoarsenKeepHeaviest:
		return nil
	default:
		return fmt.Errorf("dist: unknown coarsening strategy %d (want %s or %s)",
			int(s), CoarsenLeastError, CoarsenKeepHeaviest)
	}
}

// ParseCoarsenStrategy converts "least-error" or "keep-heaviest" to a
// CoarsenStrategy.
func ParseCoarsenStrategy(s string) (CoarsenStrategy, error) {
	switch s {
	case "least-error":
		return CoarsenLeastError, nil
	case "keep-heaviest":
		return CoarsenKeepHeaviest, nil
	default:
		return 0, fmt.Errorf("dist: unknown coarsening strategy %q (want %q or %q)",
			s, CoarsenLeastError.String(), CoarsenKeepHeaviest.String())
	}
}

// CoarsenToWith bounds the support to at most maxSupport points with
// the given strategy. See the file comment for the shared soundness
// contract and the per-strategy precision characteristics. It returns
// the receiver unchanged when maxSupport <= 0 (cap disabled) or the
// support already fits, and panics on an unknown strategy (callers
// exposing the strategy as configuration should Validate it first).
// The least-error engine works in a pooled scratch.
func (d *Dist) CoarsenToWith(maxSupport int, strategy CoarsenStrategy) *Dist {
	c := coarsening{target: maxSupport, strategy: strategy}
	if !c.binds(len(d.values)) {
		return d
	}
	if strategy == CoarsenKeepHeaviest {
		return coarsenKeepHeaviest(d.values, d.probs, maxSupport)
	}
	s := getScratch()
	out := s.coarsen(d, c)
	s.put()
	return out
}

// coarsening says how a kernel coarsens a support over the cap: to at
// most target atoms with strategy, or, when spanCap is set, with the
// least-error engine under the span cap softMaxGap(values, target) (the
// armed nodes of ConvolveAllWith's in-tree mode). target <= 0 disables
// the cap.
type coarsening struct {
	target   int
	strategy CoarsenStrategy
	spanCap  bool
}

// binds reports whether a support of n atoms is over the cap.
func (c coarsening) binds(n int) bool { return c.target > 0 && n > c.target }

// coarsen returns d coarsened by c, or d itself when the cap does not
// bind. The least-error engine merges a copy of d's masses in s.
func (s *scratch) coarsen(d *Dist, c coarsening) *Dist {
	if !c.binds(len(d.values)) {
		return d
	}
	if c.strategy == CoarsenKeepHeaviest && !c.spanCap {
		return coarsenKeepHeaviest(d.values, d.probs, c.target)
	}
	mass := grow(&s.probs, len(d.probs))
	copy(mass, d.probs)
	return s.coarsenAtoms(d.values, mass, c)
}

// coarsenAtoms coarsens the over-cap atoms (values, mass) by c. The
// least-error engine merges mass in place, so mass must be scratch
// memory or otherwise the caller's to overwrite.
func (s *scratch) coarsenAtoms(values []int64, mass []float64, c coarsening) *Dist {
	if checkEnabled {
		checkAtoms("coarsenAtoms", values, mass)
	}
	switch {
	case c.spanCap:
		return s.coarsenLeastErrorCapped(values, mass, c.target, softMaxGap(values, c.target))
	case c.strategy == CoarsenLeastError:
		return s.coarsenLeastErrorCapped(values, mass, c.target, math.Inf(1))
	case c.strategy == CoarsenKeepHeaviest:
		return coarsenKeepHeaviest(values, mass, c.target)
	default:
		panic(fmt.Sprintf("dist: CoarsenToWith: %v", c.strategy.Validate()))
	}
}

// coarsenLeastErrorCapped is the greedy least-error merge engine. The
// greedy repeatedly merges the eligible adjacent pair with the least
// (cost, left) key; this engine reproduces that merge sequence bit for
// bit in a few threshold phases instead of one pop at a time. The live
// atoms form a doubly linked list, and key[i] caches the key of pair
// (i, next[i]): its cost, or +Inf when i has no right partner, the
// span cap freezes the merge, or i was merged away. Each merge moves
// the left atom's (accumulated) mass to its right neighbor, exactly
// the upward direction the soundness contract requires; the rightmost
// atom has no right neighbor, so the support maximum can never move.
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
// effort. maxGap = +Inf makes every pair eligible for the classic
// engine.
//
// A phase takes K, the r-th smallest eligible key with r = alive −
// target (ties taken left to right, as selectThreshold decides them
// for coarsenSoft; K = +Inf when r covers every eligible pair). It
// merges every pair whose key is at most K and below both neighbouring
// pairs' keys in (key, left) order, and after each merge re-checks the
// four pairs whose standing that merge can change (prev[prev[i]],
// prev[i], j and next[j]), until no pair at or below K is left. Phases
// repeat until the support reaches target or no pair is eligible. The
// phases reproduce the greedy:
//
//  1. Merging pair i (left atom i into j = next[i]) changes only pairs
//     prev[i] and j: j's left mass grew and prev[i]'s right partner
//     moved up, so both keys can only rise (each cost is a product of
//     non-negative factors that only grew, float64 rounding is
//     monotone, and spans only widen, so a frozen pair stays frozen).
//     Every key the greedy pops is therefore at least the one before.
//  2. A pair whose key is below both neighbouring pairs' keys (a local
//     minimum) keeps its key until a neighbour merges, and the
//     neighbours' keys only rise, so the greedy pops it before either
//     neighbour. Its merge changes the mass and span of atoms i and j
//     only, so local minima commute: merging them in any order makes
//     the greedy's pops up to K, with every mass sum added in the same
//     order.
//  3. At most r greedy pops have a key at most K, because each pops a
//     distinct left atom whose key was already at most K when the phase
//     started. So a phase never overshoots the target.
//  4. Each merge removes at most three pairs from those with key at
//     most K (its own and the two it re-keys), and a phase ends only
//     when none is left, so it merges at least ⌈s/3⌉ pairs, s = min(r,
//     eligible pairs). That gives O(log n) phases and O(n log n) work in
//     the worst case. Under pwcetcheck each phase asserts this bound.
func (s *scratch) coarsenLeastErrorCapped(values []int64, mass []float64, target int, maxGap float64) *Dist {
	n := int32(len(values))
	inf := math.Inf(1)
	// low[i] is the smallest original value folded into atom i. Without
	// a span cap no merge is ever frozen by it, so it is not kept.
	capped := maxGap < inf
	var low []float64
	if capped {
		low = grow(&s.low, int(n))
		for i, v := range values {
			low[i] = float64(v)
		}
	}
	next := grow(&s.next, int(n))
	prev := grow(&s.prev, int(n))
	for i := range next {
		next[i] = int32(i + 1)
		prev[i] = int32(i - 1)
	}
	// The gap is computed in float64 (values are sorted, but the int64
	// difference of two extreme values may not fit int64); the cost is
	// a merge-ordering heuristic, so the rounding is harmless.
	keyOf := func(i int32) float64 {
		j := next[i]
		if j == n {
			return inf
		}
		vj := float64(values[j])
		if capped && vj-low[i] > maxGap {
			return inf // run span cap: this merge would travel too far
		}
		return mass[i] * (vj - float64(values[i]))
	}
	key := grow(&s.key, int(n))
	for i := range key {
		key[i] = keyOf(int32(i))
	}
	// sel never outgrows n; work can, and then appends to an array of
	// its own that the scratch does not keep.
	sel := grow(&s.sel, int(n))[:0]
	work := grow(&s.work, int(n))[:0]
	// The phase threshold: bound is K, and cut the last pair whose key
	// equals K that the phase takes. Pair i is at or below the threshold
	// when (key[i], i) <= (bound, cut) in lexicographic order.
	var bound float64
	var cut int32
	// ready reports whether pair i is at or below the threshold and pops
	// before both neighbouring pairs (the left one wins a tie).
	ready := func(i int32) bool {
		k := key[i]
		if k > bound || k == bound && i > cut {
			return false // merged away, frozen, or above the threshold
		}
		p := prev[i]
		return (p < 0 || key[p] > k) && key[next[i]] >= k
	}
	head, alive := int32(0), int(n)
	for alive > target {
		sel = sel[:0]
		for i := head; i < n; i = next[i] {
			if key[i] < inf {
				sel = append(sel, key[i])
			}
		}
		if len(sel) == 0 {
			break
		}
		r := alive - target
		steps := min(r, len(sel))
		bound, cut = inf, -1
		if r < len(sel) {
			var ties int
			bound, ties = selectThreshold(sel, r)
			for cut = head; ; cut = next[cut] {
				if key[cut] == bound {
					if ties--; ties == 0 {
						break
					}
				}
			}
		}
		work = work[:0]
		for i := head; i < n; i = next[i] {
			if ready(i) {
				work = append(work, i)
			}
		}
		merged := 0
		for len(work) > 0 {
			i := work[len(work)-1]
			work = work[:len(work)-1]
			if !ready(i) {
				continue // merged already, or a neighbour now pops first
			}
			p, j := prev[i], next[i]
			mass[j] += mass[i]
			if capped && low[i] < low[j] {
				low[j] = low[i]
			}
			key[i] = inf
			prev[j] = p
			if p >= 0 {
				next[p] = j
				key[p] = keyOf(p)
				if prev[p] >= 0 {
					work = append(work, prev[p])
				}
				work = append(work, p)
			} else {
				head = j
			}
			key[j] = keyOf(j)
			work = append(work, j)
			if next[j] < n {
				work = append(work, next[j])
			}
			alive--
			merged++
		}
		if checkEnabled && (merged < (steps+2)/3 || merged > steps) {
			panic(fmt.Sprintf("pwcetcheck: coarsenLeastErrorCapped: a phase merged %d pairs, want %d..%d", merged, (steps+2)/3, steps))
		}
	}
	vs := make([]int64, 0, alive)
	ps := make([]float64, 0, alive)
	for i := head; i < n; i = next[i] {
		vs = append(vs, values[i])
		ps = append(ps, mass[i])
	}
	if alive > target {
		// The span cap left no eligible pair early: finish uncapped on
		// the survivors so the support bound always holds. ps is the
		// survivors' own copy, so that pass merges it in place.
		if checkEnabled {
			checkAtoms("coarsenLeastErrorCapped survivors", vs, ps)
		}
		return s.coarsenLeastErrorCapped(vs, ps, target, inf)
	}
	out := fromSorted(vs, ps)
	if checkEnabled && out.Len() > target {
		panic(fmt.Sprintf("pwcetcheck: coarsenLeastErrorCapped: %d atoms, want at most %d", out.Len(), target))
	}
	return out
}

// selectThreshold returns θ, the m-th smallest of keys (1 <= m <=
// len(keys)), and ties, how many keys equal to θ rank among the m
// smallest: a pass that takes every key below θ and then the keys equal
// to θ from left to right until ties are taken takes exactly m. It
// permutes keys.
func selectThreshold(keys []float64, m int) (theta float64, ties int) {
	theta = quickselectFloat(keys, m-1)
	ties = m
	for _, c := range keys {
		if c < theta {
			ties--
		}
	}
	return theta, ties
}

// quickselectFloat partially sorts a in place and returns its k-th
// smallest element (0-indexed). Iterative Hoare partitioning with a
// median-of-three pivot: deterministic, O(len(a)) expected, and immune
// to the sorted and all-equal inputs that break a fixed-end pivot.
func quickselectFloat(a []float64, k int) float64 {
	lo, hi := 0, len(a)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if a[mid] < a[lo] {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if a[hi] < a[lo] {
			a[hi], a[lo] = a[lo], a[hi]
		}
		if a[hi] < a[mid] {
			a[hi], a[mid] = a[mid], a[hi]
		}
		p := a[mid]
		i, j := lo, hi
		for i <= j {
			for a[i] < p {
				i++
			}
			for a[j] > p {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return a[k]
		}
	}
	return a[lo]
}

// coarsenSoft is the in-tree coarsening pass of ConvolveAllWith: a linear
// threshold approximation of the least-error greedy merge, with two
// hard guards the greedy engine does not need.
//
// It quickselects θ, the (n−target)-th smallest adjacent merge cost
// mass(i)·(v_{i+1} − v_i), then sweeps left to right merging the atoms
// whose cost is below θ (ties at θ are taken left to right until the
// merge count target is met) — approximately the same atom set the
// greedy merge would, in one linear pass. The guards:
//
//   - maxGap bounds every merge run's value span, measured to the run's
//     true destination (the next kept atom). Mass never travels more
//     than maxGap upward, so no exceedance quantile — at any
//     probability, however deep in the tail — can inflate by more than
//     maxGap. The area budget alone cannot provide this: deep-tail
//     atoms carry so little mass that flinging them across huge gaps is
//     nearly free in area yet moves the deep quantiles arbitrarily.
//   - budget bounds the total exceedance-curve area the pass may add
//     (the returned spent, which equals the mean shift); a run that
//     would cross it stays unmerged.
//
// The guards are enforced incrementally per extension against the
// run's current destination, which is exactly the binding check when
// the run finally closes. The support may exceed target when the
// guards bite; the result is the receiver itself when nothing merges.
// Soundness is the same contract as every coarsening here: mass only
// ever moves to a larger support value.
func (d *Dist) coarsenSoft(target int, budget, maxGap float64) (*Dist, float64) {
	n := len(d.values)
	if n <= target {
		return d, 0
	}
	m := n - target
	costs := make([]float64, n-1)
	for i := range costs {
		costs[i] = d.probs[i] * (float64(d.values[i+1]) - float64(d.values[i]))
	}
	sel := make([]float64, n-1)
	copy(sel, costs)
	theta, ties := selectThreshold(sel, m)

	values := make([]int64, 0, target)
	probs := make([]float64, 0, target)
	var spent float64
	// The open run: atoms already marked to merge upward, waiting for
	// the next kept atom. Closing the run at value v adds exactly
	// runMass·v − runMassV of exceedance area.
	var runMass, runMassV, runMin float64
	runOpen := false
	for i := 0; i < n; i++ {
		if i < n-1 {
			c := costs[i]
			if c < theta || (c == theta && ties > 0) {
				lo := float64(d.values[i])
				if runOpen && runMin < lo {
					lo = runMin
				}
				destV := float64(d.values[i+1])
				nm := runMass + d.probs[i]
				nmv := runMassV + d.probs[i]*float64(d.values[i])
				if destV-lo <= maxGap && spent+(nm*destV-nmv) <= budget {
					runMass, runMassV, runMin, runOpen = nm, nmv, lo, true
					if c == theta {
						ties--
					}
					continue
				}
			}
		}
		// Atom i is kept: any open run lands on it.
		p := d.probs[i]
		if runOpen {
			spent += runMass*float64(d.values[i]) - runMassV
			p += runMass
			runMass, runMassV, runOpen = 0, 0, false
		}
		values = append(values, d.values[i])
		probs = append(probs, p)
	}
	if len(values) == n {
		return d, 0
	}
	return fromSorted(values, probs), spent
}

// coarsenKeepHeaviest implements CoarsenKeepHeaviest on the atoms
// (values, probs): rank atoms by mass, keep the maxSupport heaviest, and
// merge every dropped atom upward into the next retained atom.
func coarsenKeepHeaviest(values []int64, probs []float64, maxSupport int) *Dist {
	n := len(values)
	// Rank atoms by mass, excluding the maximum (index n-1), which is
	// always retained so upward merges never lack a destination. Ties
	// break by index for determinism.
	order := make([]int, n-1)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if probs[order[a]] != probs[order[b]] {
			return probs[order[a]] < probs[order[b]]
		}
		return order[a] < order[b]
	})
	drop := make([]bool, n)
	for _, i := range order[:n-maxSupport] {
		drop[i] = true
	}
	vs := make([]int64, 0, maxSupport)
	ps := make([]float64, 0, maxSupport)
	var carry float64 // mass of dropped atoms awaiting the next kept atom
	for i := 0; i < n; i++ {
		if drop[i] {
			carry += probs[i]
			continue
		}
		vs = append(vs, values[i])
		ps = append(ps, probs[i]+carry)
		carry = 0
	}
	return fromSorted(vs, ps)
}
