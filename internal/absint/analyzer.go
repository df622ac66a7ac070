package absint

import (
	"repro/internal/cache"
	"repro/internal/chmc"
	"repro/internal/program"
)

// Analyzer runs the cache analyses of one program against one cache
// configuration. It precomputes the reference lists, a reverse
// post-order of the CFG and a per-set reference index (see index.go);
// individual sets can then be classified at any effective
// associativity, which the Fault Miss Map uses to model sets with f
// faulty ways. On the compact domain one fixpoint per set serves every
// associativity up to Ways (ClassifySetByAssocInto). An Analyzer is
// safe for concurrent use.
//
// The classification fixpoints run on the compact per-set domain of
// domain_compact.go by default. NewReference/NewDataReference retain
// the original map-based domain (domain.go) as the reference
// implementation the compact path is differentially tested against.
type Analyzer struct {
	p     *program.Program
	cfg   cache.Config
	perBB [][]Ref
	all   []Ref
	rpo   []int
	sets  []setIndex
	ref   bool
}

// New builds an analyzer of the program's instruction fetches against
// the (instruction) cache configuration.
func New(p *program.Program, cfg cache.Config) *Analyzer {
	return newAnalyzer(p, cfg, false, false)
}

// NewData builds an analyzer of the program's data accesses against a
// data-cache configuration. The abstract domains, fixpoints and
// classifications are identical — only the reference stream differs —
// which is precisely why the paper expects its technique to "transpose
// to data caches" (Section VI). Stores are analyzed as write-allocate
// accesses.
func NewData(p *program.Program, cfg cache.Config) *Analyzer {
	return newAnalyzer(p, cfg, true, false)
}

// NewReference is New with the retained map-based abstract domain: the
// executable specification the compact hot path is validated against.
// Classifications are identical (asserted by the differential tests);
// only the constant factors differ.
func NewReference(p *program.Program, cfg cache.Config) *Analyzer {
	return newAnalyzer(p, cfg, false, true)
}

// NewDataReference is NewData on the retained map-based domain.
func NewDataReference(p *program.Program, cfg cache.Config) *Analyzer {
	return newAnalyzer(p, cfg, true, true)
}

func newAnalyzer(p *program.Program, cfg cache.Config, data, ref bool) *Analyzer {
	var perBB [][]Ref
	var all []Ref
	if data {
		perBB, all = ComputeDataRefs(p, cfg)
	} else {
		perBB, all = ComputeRefs(p, cfg)
	}
	rpo := reversePostOrder(p)
	return &Analyzer{
		p:     p,
		cfg:   cfg,
		perBB: perBB,
		all:   all,
		rpo:   rpo,
		sets:  buildSetIndexes(p, cfg.Sets, perBB, all, rpo),
		ref:   ref,
	}
}

// Refs returns all references in global order.
func (a *Analyzer) Refs() []Ref { return a.all }

// RefsOf returns the references of one basic block in fetch order.
func (a *Analyzer) RefsOf(bb int) []Ref { return a.perBB[bb] }

// RefsOfSet returns the references mapping to one cache set, in global
// order — the per-set index the FMM hot path iterates instead of
// filtering Refs() by set on every (set, fault-count) pair.
func (a *Analyzer) RefsOfSet(set int) []Ref { return a.sets[set].refs }

// Config returns the cache configuration being analyzed.
func (a *Analyzer) Config() cache.Config { return a.cfg }

// ClassifyAll classifies every reference at full associativity (the
// fault-free cache). The result is indexed by Ref.Global.
func (a *Analyzer) ClassifyAll() []chmc.Class {
	out := notClassified(len(a.all))
	for s := 0; s < a.cfg.Sets; s++ {
		a.classifySet(atAssoc(out, a.cfg.Ways), s)
	}
	return out
}

// ClassifySetByAssocInto classifies the references mapping to one cache
// set at several effective associativities at once (W - f for f faulty
// ways): every non-nil byAssoc[A], a caller-provided buffer of
// len(Refs()) entries, receives the set's classification at
// associativity A. Every entry belonging to a reference of the set is
// (re)written, NotClassified included, while entries of other sets are
// left untouched, so one buffer can be reused across sets; the caller
// must only ever read the entries of the set it just classified. A == 0
// yields AlwaysMiss for every reference of the set. The compact domain
// runs the set's fixpoint once, at max(Ways, len(byAssoc)-1), and reads
// every A off the same states (classifyCompact explains why that is
// exact); the Fault Miss Map classifies each set at W-1, ..., 1 with one
// call.
func (a *Analyzer) ClassifySetByAssocInto(byAssoc [][]chmc.Class, set int) {
	for _, out := range byAssoc {
		if out != nil {
			for _, r := range a.sets[set].refs {
				out[r.Global] = chmc.NotClassified
			}
		}
	}
	a.classifySet(byAssoc, set)
}

// notClassified returns n NotClassified entries.
func notClassified(n int) []chmc.Class {
	out := make([]chmc.Class, n)
	for i := range out {
		out[i] = chmc.NotClassified
	}
	return out
}

// atAssoc is the byAssoc request of a single buffer at one
// associativity; an associativity below 0 classifies like 0.
func atAssoc(out []chmc.Class, assoc int) [][]chmc.Class {
	byAssoc := make([][]chmc.Class, max(assoc, 0)+1)
	byAssoc[len(byAssoc)-1] = out
	return byAssoc
}

// classifySet dispatches one set's classification to the compact hot
// path or the retained reference domain, which runs one fixpoint per
// requested associativity. Both write the refs of the set that sit in
// entry-reachable blocks; callers prefill the rest.
func (a *Analyzer) classifySet(byAssoc [][]chmc.Class, set int) {
	if a.ref {
		for assoc, out := range byAssoc {
			if out != nil {
				a.classifySetIntoReference(out, set, assoc)
			}
		}
		return
	}
	a.classifySetIntoCompact(byAssoc, set)
}

// classifySetIntoCompact runs the set's fixpoint once on the compact
// domain, at max(Ways, len(byAssoc)-1), and a classification sweep that
// writes every requested associativity from the same IN states.
func (a *Analyzer) classifySetIntoCompact(byAssoc [][]chmc.Class, set int) {
	ix := &a.sets[set]
	if len(ix.refs) == 0 || len(byAssoc) == 0 {
		return
	}
	if out := byAssoc[0]; out != nil {
		// No usable ways: nothing is ever cached.
		for _, r := range ix.refs {
			out[r.Global] = chmc.AlwaysMiss
		}
	}
	lo := 1
	for lo < len(byAssoc) && byAssoc[lo] == nil {
		lo++
	}
	if lo == len(byAssoc) {
		return
	}
	assoc := max(a.cfg.Ways, len(byAssoc)-1)
	sc := scratchPoolCompact.Get().(*scratchCompact)
	defer scratchPoolCompact.Put(sc)
	sc.reset(len(a.p.Blocks), len(ix.blocks), ix.words)
	a.fixpointCompact(sc, ix, assoc)

	// Classification sweep: only blocks holding references of this set
	// matter, and the groups list them in reverse post-order already.
	for gi := range ix.groups {
		g := &ix.groups[gi]
		in := a.inStateCompact(sc, int(g.bb), assoc)
		for _, lr := range g.refs {
			for A := lo; A < len(byAssoc); A++ {
				out := byAssoc[A]
				switch {
				case out == nil:
				case !in.reached:
					// Unreachable code never executes; AlwaysMiss is
					// the conservative (and irrelevant) classification.
					out[lr.global] = chmc.AlwaysMiss
				default:
					out[lr.global] = classifyCompact(in, lr.local, A)
				}
			}
			if in.reached {
				in.access(lr.local, assoc)
			}
		}
	}
}

// fixpointCompact iterates the three analyses for one set to a fixpoint
// on the compact domain at associativity assoc, leaving the OUT state
// of every block in the scratch (unreached for blocks no pass reached).
func (a *Analyzer) fixpointCompact(sc *scratchCompact, ix *setIndex, assoc int) {
	for pass := 0; ; pass++ {
		// The first pass computes every block for the first time.
		changed := pass == 0
		gi := 0
		for pos, bb := range a.rpo {
			st := a.inStateCompact(sc, bb, assoc)
			var g *refGroup
			for gi < len(ix.groups) && int(ix.groups[gi].rpoPos) < pos {
				gi++
			}
			if gi < len(ix.groups) && int(ix.groups[gi].rpoPos) == pos {
				g = &ix.groups[gi]
				gi++
			}
			if st.reached && g != nil {
				for _, lr := range g.refs {
					st.access(lr.local, assoc)
				}
			}
			if !sc.states[sc.out[bb]].equal(st) {
				sc.out[bb], sc.in = sc.in, sc.out[bb]
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// inStateCompact joins the predecessors' OUT states into the scratch's
// IN state and returns it (the entry block starts from the reached
// empty cache).
func (a *Analyzer) inStateCompact(sc *scratchCompact, bb, assoc int) *cstate {
	in := &sc.states[sc.in]
	in.reached = false
	if bb == a.p.Entry {
		in.reset()
		in.reached = true
	}
	for _, pr := range a.p.Blocks[bb].Preds {
		in.join(&sc.states[sc.out[pr]], assoc)
	}
	return in
}

// classifySetIntoReference is the retained map-based classification
// path (the pre-index implementation, verbatim).
func (a *Analyzer) classifySetIntoReference(out []chmc.Class, set, assoc int) {
	if assoc <= 0 {
		for _, r := range a.all {
			if r.Set == set {
				out[r.Global] = chmc.AlwaysMiss
			}
		}
		return
	}

	outStates := a.fixpoint(set, assoc)

	for _, bb := range a.rpo {
		in := a.inState(outStates, bb, assoc)
		if !in.reached {
			// Unreachable code never executes; AlwaysMiss is the
			// conservative (and irrelevant) classification.
			for _, r := range a.perBB[bb] {
				if r.Set == set {
					out[r.Global] = chmc.AlwaysMiss
				}
			}
			continue
		}
		for _, r := range a.perBB[bb] {
			if r.Set != set {
				continue
			}
			out[r.Global] = classify(in, r.Block, assoc)
			in.access(r.Block, assoc)
		}
	}
}

// classify derives the CHMC of an access to block m from the pre-state.
func classify(st *setState, m uint32, assoc int) chmc.Class {
	if _, ok := st.must[m]; ok {
		return chmc.AlwaysHit
	}
	y, everLoaded := st.pers[m]
	if !everLoaded {
		// No path has loaded m before this point, so the reference
		// executes at most once per run: at most one miss.
		return chmc.FirstMiss
	}
	if !y.sat {
		return chmc.FirstMiss
	}
	if _, ok := st.may[m]; !ok {
		return chmc.AlwaysMiss
	}
	return chmc.NotClassified
}

// fixpoint iterates the three analyses for one set to a fixpoint on the
// reference domain and returns the OUT state of every block.
func (a *Analyzer) fixpoint(set, assoc int) []*setState {
	outStates := make([]*setState, len(a.p.Blocks))
	for changed := true; changed; {
		changed = false
		for _, bb := range a.rpo {
			st := a.inState(outStates, bb, assoc)
			if st.reached {
				for _, r := range a.perBB[bb] {
					if r.Set == set {
						st.access(r.Block, assoc)
					}
				}
			}
			if outStates[bb] == nil || !outStates[bb].equal(st) {
				outStates[bb] = st
				changed = true
			}
		}
	}
	return outStates
}

// inState joins the predecessors' OUT states (the entry block starts from
// the reached empty cache).
func (a *Analyzer) inState(outStates []*setState, bb, assoc int) *setState {
	in := newSetState()
	if bb == a.p.Entry {
		in.reached = true
	}
	for _, pr := range a.p.Blocks[bb].Preds {
		if outStates[pr] != nil {
			in.join(outStates[pr], assoc)
		}
	}
	return in
}

// reversePostOrder returns the CFG blocks in reverse post-order from the
// entry, which makes the fixpoint sweeps converge in few passes.
func reversePostOrder(p *program.Program) []int {
	visited := make([]bool, len(p.Blocks))
	var post []int
	// Iterative DFS with an explicit stack to avoid recursion limits.
	type frame struct {
		node int
		next int
	}
	var stack []frame
	push := func(n int) {
		visited[n] = true
		stack = append(stack, frame{node: n})
	}
	push(p.Entry)
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		succs := p.Blocks[f.node].Succs
		if f.next < len(succs) {
			s := succs[f.next]
			f.next++
			if !visited[s] {
				push(s)
			}
			continue
		}
		post = append(post, f.node)
		stack = stack[:len(stack)-1]
	}
	rpo := make([]int, len(post))
	for i, n := range post {
		rpo[len(post)-1-i] = n
	}
	return rpo
}
