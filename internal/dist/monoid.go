// Monoid-structured reduction: the optimized ConvolveAllWith engine.
//
// The per-set penalty distributions the FMM stage produces are largely
// identical or shifted copies of one another (one distribution per
// fault profile, replicated across cache sets), so the N-way merge has
// exploitable algebraic structure: convolution is a commutative monoid
// and Shift distributes over it bitwise. This file detects that
// structure (canonical content order, shift-equivalence classes),
// hash-conses the merge plan so each distinct subtree convolves once,
// and interleaves budgeted coarsening into the tree so intermediate
// supports never balloon. reduce.go keeps the plan builder and the
// retained exact executor.
package dist

import (
	"math"
	"runtime"
	"sort"
	"sync"
)

// compareShape orders distributions by shift-invariant content:
// support size, then shift-normalized values (v - Min, compared as
// uint64 so the normalization is exact even across the int64 range),
// then probability bit patterns. Returns 0 exactly when the two are
// shift-equivalent: convolving either of them is the same computation
// up to one final Shift.
func compareShape(a, b *Dist) int {
	if len(a.values) != len(b.values) {
		if len(a.values) < len(b.values) {
			return -1
		}
		return 1
	}
	abase, bbase := uint64(a.values[0]), uint64(b.values[0])
	for i, av := range a.values {
		na, nb := uint64(av)-abase, uint64(b.values[i])-bbase
		if na != nb {
			if na < nb {
				return -1
			}
			return 1
		}
	}
	for i, ap := range a.probs {
		na, nb := math.Float64bits(ap), math.Float64bits(b.probs[i])
		if na != nb {
			if na < nb {
				return -1
			}
			return 1
		}
	}
	return 0
}

// compareDist is compareShape with Min as the final tie-break: a total
// order on distribution contents. Sorting by it makes the reduction a
// pure function of the input multiset (never of input positions) and
// puts each shift-equivalence class in one contiguous run led by its
// smallest-Min member — the class representative, so every member's
// delta against it is non-negative and the representative subtree can
// never overflow where the raw one would not.
func compareDist(a, b *Dist) int {
	if a == b {
		return 0
	}
	if c := compareShape(a, b); c != 0 {
		return c
	}
	if a.values[0] != b.values[0] {
		if a.values[0] < b.values[0] {
			return -1
		}
		return 1
	}
	return 0
}

// canonicalSort returns ds sorted by compareDist, leaving ds itself
// untouched.
func canonicalSort(ds []*Dist) []*Dist {
	sorted := make([]*Dist, len(ds))
	copy(sorted, ds)
	sort.SliceStable(sorted, func(i, j int) bool { return compareDist(sorted[i], sorted[j]) < 0 })
	return sorted
}

// In-tree coarsening tuning. The budget machinery only arms when the
// reduction provably ends far over the cap (reductionBound >
// inTreeSlack·maxSupport) AND is wide enough for intermediate supports
// to balloon across many tree levels (>= inTreeMinInputs inputs):
// every paper-scale configuration — 16 sets, where the final
// coarsening barely binds and golden quantiles are pinned — runs
// bit-exact, and only the deeply over-cap regime (e.g. 256-set caches,
// where the exact support is ~9x the cap) trades a bounded exceedance
// area for tractable intermediate sizes.
const (
	// inTreeSlack: arm in-tree coarsening only when the exact final
	// support provably exceeds inTreeSlack·maxSupport.
	inTreeSlack = 3
	// inTreeMinInputs: additionally require a reduction at least this
	// wide. A wide-span 16-set configuration can clear the
	// reductionBound guard (span/gcd alone says little about tree
	// cost), but its merge tree is so shallow that the classic
	// final-coarsen path is already fast — and the paper-configuration
	// goldens (internal/malardalen) pin those pWCETs exactly, so
	// shallow reductions must stay on the bit-exact path. In-tree
	// budgets only pay for themselves when intermediate supports would
	// otherwise balloon across many levels.
	inTreeMinInputs = 32
	// softPairLimit: only merges whose operand pair count exceeds this
	// are pre-coarsened; smaller nodes (the whole bottom of the tree)
	// stay exact.
	softPairLimit = 1 << 17
	// softAreaFrac scales the total in-tree area budget: εtotal =
	// softAreaFrac · Σᵢ (Mean(dᵢ) − Min(dᵢ)). The sum is the natural
	// shift-invariant scale of the exact curve; the fraction is tuned
	// against TestCoarsenLeastErrorTailFidelityInTree's 1.10x bound.
	softAreaFrac = 1.0 / (1 << 10)
	// softGapSlack scales each operand's merge-run span cap relative to
	// its natural resolution span/softTarget (see softMaxGap). The area
	// budget alone cannot protect deep-tail quantiles — tail atoms carry
	// ~1e-12 mass, so merging them across enormous gaps is nearly free
	// in area yet moves the 1e-12 quantile arbitrarily — so the run cap
	// is what keeps in-tree coarsening tail-faithful, and this slack is
	// the speed/fidelity dial: larger values let coarsening reach the
	// target on raggeder supports, at more quantile inflation per level.
	softGapSlack = 2.0
)

// softMaxGap is the merge-run span cap for in-tree coarsening of a
// sorted support: a small multiple of span/target, the run width a
// uniform coarsening to target atoms would need. Capping runs at it
// bounds every quantile's inflation — at any exceedance probability,
// however deep — to one cap per coarsened operand, because coarsening
// moves mass upward by at most the span of the run it joins.
func softMaxGap(values []int64, target int) float64 {
	span := float64(values[len(values)-1]) - float64(values[0])
	return softGapSlack * span / float64(target)
}

// reductionBound returns a sound upper bound on the exact (uncoarsened)
// final support size of convolving ds: the smaller of the support-size
// product and the final span divided by the common value stride, both
// saturating at sizeCap.
func reductionBound(ds []*Dist) int64 {
	prod := int64(1)
	for _, d := range ds {
		n := int64(d.Len())
		if prod > sizeCap/n {
			prod = sizeCap
			break
		}
		prod *= n
	}
	var span, g uint64
	for _, d := range ds {
		s := uint64(d.values[len(d.values)-1]) - uint64(d.values[0])
		if span+s < span {
			span = math.MaxUint64
		} else {
			span += s
		}
		if g != 1 {
			g = valuesGCD(g, d.values)
		}
	}
	if g == 0 {
		g = 1 // every input degenerate: span is 0 anyway
	}
	cells := span / g
	if cells >= uint64(sizeCap) || int64(cells)+1 > prod {
		return prod
	}
	return int64(cells) + 1
}

// convolveAllStats instruments one optimized reduction for the test
// suite; production callers ignore it.
type convolveAllStats struct {
	classes     int     // shift-equivalence classes among the inputs
	planNodes   int     // internal nodes in the merge plan (len(ds)-1)
	uniqueNodes int     // internal nodes actually computed after interning
	softBudget  float64 // total in-tree exceedance-area budget (0 = off)
	softSpent   float64 // area actually spent by in-tree coarsening
}

// canonNode is one hash-consed merge-tree computation: a
// shift-equivalence class of inputs (leaf, l == r == -1) or the
// convolution of two canon children. Identical (l, r) pairs intern to
// one node, so leaves and depth are pure functions of the id.
type canonNode struct {
	l, r   int32 // canon child ids, -1 for leaves
	leaves int32 // inputs under this subtree
	depth  int32 // 0 for leaves
	eps    float64
	spent  float64
	result *Dist
	done   chan struct{}
}

// convolveAllOpt is the optimized reduction behind ConvolveAllWith and
// ConvolveAllCancelWith. The stats return exists for the differential
// suite; the distribution is what callers use.
//
// Exactness conditions: the result is byte-identical to
// ConvolveAllExact on the same inputs whenever no coarsening binds —
// i.e. when reductionBound(ds) <= maxSupport, or maxSupport <= 0 —
// because canonical ordering and plan are shared, pure-function subtree
// sharing is bitwise-neutral, and Shift commutes bitwise with Convolve.
// When only the final cap binds (reductionBound <=
// inTreeSlack·maxSupport) the merges differ from exact solely through
// CoarsenToWith decisions, which are shift-invariant for values below
// 2^53 — the entire pipeline's value range. Beyond that, in-tree
// coarsening arms and the result additionally lifts the exceedance
// curve by at most softBudget of area (the per-merge budgets sum to at
// most εtotal; see the constants above), on top of the single-final-
// coarsen bound — still a sound upper bound with the exact support
// maximum, like every coarsening here.
//
// probe, when non-nil, is consulted once up front and once per merge
// node (on whichever goroutine computes it). The first non-nil probe
// error sticks: remaining nodes skip their convolutions, every
// in-flight done channel still closes — no goroutine outlives the call
// — and the error is returned in place of a distribution. A nil probe
// adds no per-node overhead beyond one nil check.
func convolveAllOpt(ds []*Dist, maxSupport, workers int, strategy CoarsenStrategy, probe func() error) (*Dist, convolveAllStats, error) {
	var st convolveAllStats
	var abortMu sync.Mutex
	var abortErr error
	// checkCancel consults the probe under a sticky-error lock: once any
	// node observes cancellation, every later check returns the same
	// error without re-probing.
	checkCancel := func() error {
		if probe == nil {
			return nil
		}
		abortMu.Lock()
		defer abortMu.Unlock()
		if abortErr == nil {
			abortErr = probe()
		}
		return abortErr
	}
	if err := checkCancel(); err != nil {
		return nil, st, err
	}
	if len(ds) == 0 {
		return Degenerate(0), st, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if len(ds) == 1 {
		return ds[0].CoarsenToWith(maxSupport, strategy), st, nil
	}
	n := len(ds)
	sorted := canonicalSort(ds)

	// Leaves: one canon node per shift-equivalence class. Sorting made
	// classes contiguous and put the smallest-Min member first, so the
	// representative is sorted[k]'s first class sibling and all deltas
	// are >= 0.
	canon := make([]*canonNode, 0, 2*n-1)
	nodeCanon := make([]int32, 2*n-1) // plan node -> canon id
	nodeDelta := make([]int64, 2*n-1) // plan node -> shift vs canon result
	for k, d := range sorted {
		if k > 0 && compareShape(sorted[k-1], d) == 0 {
			nodeCanon[k] = nodeCanon[k-1]
			nodeDelta[k] = d.values[0] - canon[nodeCanon[k]].result.values[0]
		} else {
			canon = append(canon, &canonNode{l: -1, r: -1, leaves: 1, result: d})
			nodeCanon[k] = int32(len(canon) - 1)
		}
	}
	st.classes = len(canon)
	leafClasses := len(canon)

	// Intern the plan: nodes with identical canon children are the same
	// pure computation, so they share one canon node. For k equal
	// inputs the balanced Huffman pairing turns this sharing into
	// exponentiation by squaring — O(log k) distinct convolutions.
	plan := buildMergePlan(sorted, maxSupport)
	st.planNodes = len(plan)
	type pairKey struct{ l, r int32 }
	intern := make(map[pairKey]int32, len(plan))
	maxDepth := int32(0)
	for k, stp := range plan {
		cl, cr := nodeCanon[stp.l], nodeCanon[stp.r]
		id, ok := intern[pairKey{cl, cr}]
		if !ok {
			dep := canon[cl].depth
			if canon[cr].depth > dep {
				dep = canon[cr].depth
			}
			dep++
			if dep > maxDepth {
				maxDepth = dep
			}
			canon = append(canon, &canonNode{
				l: cl, r: cr,
				leaves: canon[cl].leaves + canon[cr].leaves,
				depth:  dep,
			})
			id = int32(len(canon) - 1)
			intern[pairKey{cl, cr}] = id
		}
		checkSumOverflow(nodeDelta[stp.l], nodeDelta[stp.r])
		nodeCanon[n+k] = id
		nodeDelta[n+k] = nodeDelta[stp.l] + nodeDelta[stp.r]
	}
	st.uniqueNodes = len(canon) - leafClasses

	// Arm in-tree coarsening only deep over the cap, and only for the
	// least-error strategy (the legacy keep-heaviest reduction keeps
	// its final-coarsen-only semantics). The total budget εtotal splits
	// across nodes proportionally to the inputs they cover: Σ over
	// internal nodes of leaves(node) <= n·depth(root), so the per-node
	// slices can never sum past εtotal for any tree shape — and the
	// split is a pure function of the plan, hence worker-independent.
	softTarget := 0
	if maxSupport >= 2 && strategy == CoarsenLeastError && n >= inTreeMinInputs &&
		reductionBound(sorted) > inTreeSlack*int64(maxSupport) {
		softTarget = maxSupport / 16
		if softTarget < 2 {
			softTarget = 2
		}
		var scale float64
		for _, d := range sorted {
			scale += d.Mean() - float64(d.values[0])
		}
		st.softBudget = softAreaFrac * scale
		denom := float64(n) * float64(maxDepth)
		for _, nd := range canon[leafClasses:] {
			nd.eps = st.softBudget * float64(nd.leaves) / denom
		}
	}

	// An over-cap node coarsens straight from the scratch's read-out.
	// Armed nodes hard-coarsen with a span cap. The soft passes pre-thin
	// the operands' tail dust, and on such pre-thinned products the
	// uncapped greedy engine's cost equilibrium rises until it flings
	// whole near-massless tail bands into the support maximum — the
	// capped engine freezes the already-sparse tail and spends its
	// merges on the dense body instead (see coarsenLeastErrorCapped).
	hard := coarsening{target: maxSupport, strategy: strategy, spanCap: softTarget > 0}
	compute := func(nd *canonNode, s *scratch) {
		if checkCancel() != nil {
			return // a child may have been skipped; leave result nil
		}
		l, r := canon[nd.l].result, canon[nd.r].result
		if softTarget > 0 && int64(l.Len())*int64(r.Len()) > softPairLimit {
			half := nd.eps / 2
			var sl, sr float64
			l, sl = l.coarsenSoft(softTarget, half, softMaxGap(l.values, softTarget))
			r, sr = r.coarsenSoft(softTarget, half, softMaxGap(r.values, softTarget))
			nd.spent = sl + sr
		}
		nd.result = s.convolveCoarsen(l, r, hard)
	}

	internal := canon[leafClasses:]
	rootID := nodeCanon[2*n-2]
	// One goroutine runs each node, so slots beyond the node count
	// change no schedule. Each slot costs a channel cell, and a caller
	// may pass any count (a serve batch request's workers reaches
	// here), so the slots are clamped to the nodes.
	workers = min(workers, len(internal))
	if workers <= 1 {
		// Canon ids are in dependency order (children precede parents).
		// One scratch serves every node; it returns to the pool only if
		// no node panicked.
		s := getScratch()
		for _, nd := range internal {
			compute(nd, s)
		}
		s.put()
	} else {
		// Dependency-driven parallel execution: one goroutine per unique
		// node waits for its children, takes a worker slot, computes and
		// publishes. Every canon node is an ancestor-reachable
		// dependency of the root (each plan node maps onto the canon
		// DAG), so waiting for the root's done orders every write before
		// the reads below. A slot carries its worker's scratch, taken
		// from the pool on the slot's first use; every slot is back in
		// sem once the root is done.
		sem := make(chan *scratch, workers)
		for range workers {
			sem <- nil
		}
		for _, nd := range internal {
			nd.done = make(chan struct{})
		}
		for _, nd := range internal {
			go func(nd *canonNode) {
				if c := canon[nd.l]; c.done != nil {
					<-c.done
				}
				if c := canon[nd.r]; c.done != nil {
					<-c.done
				}
				s := <-sem
				if s == nil {
					s = getScratch()
				}
				compute(nd, s)
				sem <- s
				close(nd.done)
			}(nd)
		}
		<-canon[rootID].done
		for range workers {
			if s := <-sem; s != nil {
				s.put()
			}
		}
	}
	if probe != nil {
		abortMu.Lock()
		err := abortErr
		abortMu.Unlock()
		if err != nil {
			return nil, st, err
		}
	}
	for _, nd := range internal {
		st.softSpent += nd.spent
	}
	return canon[rootID].result.Shift(nodeDelta[2*n-2]), st, nil
}
