package dist

// siftDownFunc restores the min-heap property of h rooted at root,
// under the given strict order. It serves the merge-plan builder, whose
// heap holds one node per input and is built once per reduction. The
// hot heap, the k-way merge's, sifts with direct comparisons instead
// (see convolveKWay for what the indirect call costs).
func siftDownFunc[T any](h []T, root int, less func(a, b T) bool) {
	for {
		child := 2*root + 1
		if child >= len(h) {
			return
		}
		if r := child + 1; r < len(h) && less(h[r], h[child]) {
			child = r
		}
		if !less(h[child], h[root]) {
			return
		}
		h[root], h[child] = h[child], h[root]
		root = child
	}
}

// mergeStep is one internal node of the static merge tree: node
// len(ds)+k convolves nodes l and r.
type mergeStep struct {
	l, r int32
}

// sizeCap bounds the support-size estimates when coarsening is
// disabled, keeping the products inside int64.
const sizeCap = int64(1) << 40

// buildMergePlan builds the Huffman-style merge schedule from the
// input support sizes alone: repeatedly pair the two smallest pending
// nodes, estimating each product's size as min(l*r, maxSupport) —
// coarsening caps whatever exceeds maxSupport. Ties break on arrival
// order (input index, then creation order), which makes the plan
// deterministic and reduces to the balanced pairwise tree for
// power-of-two counts of equal-size inputs.
func buildMergePlan(ds []*Dist, maxSupport int) []mergeStep {
	n := len(ds)
	type node struct {
		size int64
		seq  int32
	}
	h := make([]node, n)
	for i, d := range ds {
		h[i] = node{size: int64(d.Len()), seq: int32(i)}
	}
	less := func(a, b node) bool {
		return a.size < b.size || (a.size == b.size && a.seq < b.seq)
	}
	for i := n/2 - 1; i >= 0; i-- {
		siftDownFunc(h, i, less)
	}
	pop := func() node {
		top := h[0]
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		siftDownFunc(h, 0, less)
		return top
	}
	siftUp := func(i int) {
		for i > 0 {
			parent := (i - 1) / 2
			if !less(h[i], h[parent]) {
				return
			}
			h[i], h[parent] = h[parent], h[i]
			i = parent
		}
	}
	cap64 := sizeCap
	if maxSupport > 0 && int64(maxSupport) < cap64 {
		cap64 = int64(maxSupport)
	}
	plan := make([]mergeStep, 0, n-1)
	for len(h) > 1 {
		a := pop()
		b := pop()
		// Saturating product: a wrap-around could land non-negative
		// (two sizeCap nodes multiply to 2^80 ≡ 0 mod 2^64) and
		// misrank the largest pending node as the smallest.
		est := cap64
		if a.size == 0 || b.size <= cap64/a.size {
			est = a.size * b.size
		}
		id := int32(n + len(plan))
		plan = append(plan, mergeStep{l: a.seq, r: b.seq})
		h = append(h, node{size: est, seq: id})
		siftUp(len(h) - 1)
	}
	return plan
}

// ConvolveAllWith returns the distribution of the sum of all ds
// (mutually independent random variables), reducing them by a
// size-aware binary merge tree instead of a left fold. The merge
// schedule is built statically, Huffman-style: a min-heap of pending
// distributions keyed by (estimated support size, arrival order)
// always pairs the two smallest operands next, so skewed inputs (many
// degenerate or tiny per-set distributions next to capped 4096-atom
// partials) never drag a small operand through a chain of large
// convolutions. For a power-of-two count of equal-size inputs the
// schedule is the balanced pairwise tree (the paper's 16- and 256-set
// geometries). Each partial product is coarsened with strategy to
// maxSupport support points only when it exceeds the cap (CoarsenTo is
// the identity below it), so the result carries the same soundness
// contract as the fold: a pessimistic upper bound on the exceedance
// curve whenever the cap binds, the exact distribution otherwise.
// maxSupport <= 0 disables coarsening.
//
// workers bounds the merge nodes convolving concurrently, the calling
// goroutine included; 0 means GOMAXPROCS, 1 runs every node in order
// on the calling goroutine. The nodes of one depth of the merge tree
// run concurrently through par.ForEach once the shallower depths are
// done, and each node runs one sequential convolution and coarsening
// on its worker's scratch. The schedule is a pure function of
// the inputs' canonical order and support sizes, and every node's
// product is a pure function of its two children, so the result is
// byte-identical for every worker count and every strategy.
//
// An empty ds yields Degenerate(0), the neutral element of convolution.
//
// # Monoid structure
//
// Distributions form a commutative monoid under convolution, and the
// reduction exploits it three ways. First, the inputs are reordered
// canonically (by content, not position), so the result is invariant
// under any permutation of ds. Second, equal and shift-equivalent
// inputs — the common shape of per-set penalty distributions, one
// distribution per fault profile replicated across sets — are detected
// up front by content comparison and shift normalization, and the merge
// tree is hash-consed: every node is keyed by its (class, class)
// children, so each distinct subtree convolves once and k equal inputs
// cost O(log k) convolutions (the shared balanced subtrees are an
// exponentiation by squaring), with one final Shift restoring
// the accumulated offsets. Shifting commutes bitwise with convolution
// on every path (identical accumulation orders, identical products), so
// the sharing cannot change a single bit of the result.
//
// Third, when the exact final support provably dwarfs maxSupport and
// strategy is CoarsenLeastError, an exceedance-area budget is spread
// over the merge tree and big operands are pre-coarsened before
// convolving (in-tree coarsening), keeping intermediate pair counts —
// and with them the whole reduction — bounded instead of ballooning to
// maxSupport² per node. The legacy CoarsenKeepHeaviest reduction stays
// final-coarsen-only. See convolveAllOpt for the budget split and the
// exactness conditions.
//
// ConvolveAllExact is the retained reference reduction — same
// canonical order and merge plan, no sharing, no in-tree coarsening —
// byte-identical to this one whenever no coarsening binds
// (core.EngineOptions.ExactConvolve routes the pipeline through it for
// differential validation).
func ConvolveAllWith(ds []*Dist, maxSupport, workers int, strategy CoarsenStrategy) *Dist {
	d, err := ConvolveAllCancelWith(ds, maxSupport, workers, strategy, nil)
	if err != nil {
		panic("dist: ConvolveAllWith canceled without a probe: " + err.Error())
	}
	return d
}

// ConvolveAllCancelWith is ConvolveAllWith with a cancellation probe:
// probe (typically a context.Context's Err method) is consulted once
// up front and once per merge node, and the first non-nil error
// abandons the remaining convolutions and is returned in place of a
// result. The probe may run on several goroutines at once, so it must
// be safe for concurrent use, as ctx.Err is. Cancellation is clean —
// every worker returns before the call does — and a nil probe makes the
// function equivalent to ConvolveAllWith.
func ConvolveAllCancelWith(ds []*Dist, maxSupport, workers int, strategy CoarsenStrategy, probe func() error) (*Dist, error) {
	d, _, err := convolveAllOpt(ds, maxSupport, workers, strategy, probe)
	return d, err
}

// ConvolveAllExact is the retained reference reduction: the same
// canonical input order and Huffman merge plan as ConvolveAllWith, but
// every internal node is computed independently from its two children,
// in plan order on the calling goroutine — no shift-class sharing, no
// in-tree budget coarsening, no scheduler. When no coarsening binds
// anywhere it is byte-identical to ConvolveAllWith (the differential
// suite pins this); when the cap binds, both remain sound upper bounds
// that differ only by the documented in-tree area budget. It exists to
// validate the optimized path and costs O(len(ds)) convolutions
// regardless of input structure. probe follows ConvolveAllCancelWith's
// contract.
func ConvolveAllExact(ds []*Dist, maxSupport int, strategy CoarsenStrategy, probe func() error) (*Dist, error) {
	check := func() error {
		if probe == nil {
			return nil
		}
		return probe()
	}
	if err := check(); err != nil {
		return nil, err
	}
	if len(ds) == 0 {
		return Degenerate(0), nil
	}
	if len(ds) == 1 {
		return ds[0].CoarsenToWith(maxSupport, strategy), nil
	}
	n := len(ds)
	sorted := canonicalSort(ds)
	plan := buildMergePlan(sorted, maxSupport)
	results := make([]*Dist, 2*n-1)
	copy(results, sorted)
	// The plan lists nodes in dependency order (children always precede
	// parents).
	for k, st := range plan {
		if err := check(); err != nil {
			return nil, err
		}
		results[n+k] = results[st.l].Convolve(results[st.r]).CoarsenToWith(maxSupport, strategy)
	}
	return results[2*n-2], nil
}
