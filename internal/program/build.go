package program

import (
	"fmt"
	"sort"
)

// Build assembles the program: it lowers every function to a proto-CFG,
// lays functions out sequentially from the base address, virtually inlines
// calls starting from the entry function (the first one defined), and
// computes loop nesting. Recursion (direct or mutual) is rejected.
func (b *Builder) Build() (*Program, error) {
	if b.err != nil {
		return nil, fmt.Errorf("program %s: %w", b.name, b.err)
	}
	if len(b.order) == 0 {
		return nil, fmt.Errorf("program %s: no functions defined", b.name)
	}

	protos := make(map[string]*protoFunc, len(b.order))
	for _, name := range b.order {
		pf, err := emitFunc(b.funcs[name])
		if err != nil {
			return nil, fmt.Errorf("program %s, function %s: %w", b.name, name, err)
		}
		protos[name] = pf
	}

	// Layout: functions back to back in definition order.
	var addr uint32
	for _, name := range b.order {
		pf := protos[name]
		pf.addr = addr
		addr += uint32(pf.numInstr * InstrBytes)
	}

	p := &Program{Name: b.name}
	inl := &inliner{b: b, protos: protos, p: p, inlined: make(map[string]int)}
	entry, exit, err := inl.instantiate(b.order[0], nil)
	if err != nil {
		return nil, fmt.Errorf("program %s: %w", b.name, err)
	}
	p.Entry, p.Exit = entry, exit

	for _, name := range b.order {
		pf := protos[name]
		p.Funcs = append(p.Funcs, FuncInfo{
			Name:       name,
			Addr:       pf.addr,
			NumInstr:   pf.numInstr,
			NumInlined: inl.inlined[name],
		})
	}

	fillPreds(p)
	if err := computeLoopNesting(p); err != nil {
		return nil, fmt.Errorf("program %s: %w", b.name, err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustBuild is Build that panics on error; intended for the static
// benchmark suite, whose programs are fixed at compile time.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

type inliner struct {
	b       *Builder
	protos  map[string]*protoFunc
	p       *Program
	inlined map[string]int
}

// instantiate creates a fresh copy of fname's blocks and loops in the
// program (a new call context), recursively splicing callees at call
// sites. Addresses are the function's own, so all contexts of a function
// share its cache footprint. chain carries the call stack for recursion
// detection.
func (in *inliner) instantiate(fname string, chain []string) (entryID, exitID int, err error) {
	pf, ok := in.protos[fname]
	if !ok {
		return 0, 0, fmt.Errorf("call to undefined function %q", fname)
	}
	for _, c := range chain {
		if c == fname {
			return 0, 0, fmt.Errorf("recursion detected: %v -> %s", chain, fname)
		}
	}
	in.inlined[fname]++
	chain = append(chain, fname)

	idmap := make([]int, len(pf.blocks))
	for i, pb := range pf.blocks {
		nb := &Block{
			ID:       len(in.p.Blocks),
			Addr:     pf.addr + uint32(pb.offset*InstrBytes),
			NumInstr: pb.n,
			Data:     append([]DataAccess(nil), pb.data...),
			Func:     fname,
			Loop:     -1,
		}
		in.p.Blocks = append(in.p.Blocks, nb)
		idmap[i] = nb.ID
	}
	for i, pb := range pf.blocks {
		from := idmap[i]
		if pb.call != "" {
			ce, cx, err := in.instantiate(pb.call, chain)
			if err != nil {
				return 0, 0, err
			}
			in.p.Blocks[from].Succs = append(in.p.Blocks[from].Succs, ce)
			in.p.Blocks[cx].Succs = append(in.p.Blocks[cx].Succs, idmap[pb.resume])
			continue
		}
		for _, s := range pb.succs {
			in.p.Blocks[from].Succs = append(in.p.Blocks[from].Succs, idmap[s])
		}
	}
	for _, pl := range pf.loops {
		in.p.Loops = append(in.p.Loops, &Loop{
			ID:       len(in.p.Loops),
			Header:   idmap[pl.header],
			Bound:    pl.bound,
			Parent:   -1,
			BodySucc: idmap[pl.bodySucc],
			ExitSucc: idmap[pl.exitSucc],
			Back:     []Edge{{From: idmap[pl.latch], To: idmap[pl.header]}},
		})
	}
	return idmap[pf.entry], idmap[pf.exit], nil
}

func fillPreds(p *Program) {
	for _, b := range p.Blocks {
		for _, s := range b.Succs {
			p.Blocks[s].Preds = append(p.Blocks[s].Preds, b.ID)
		}
	}
}

// computeLoopNesting computes, for every loop, its natural-loop member
// set, its entry edges and its parent; and for every block, the innermost
// containing loop.
func computeLoopNesting(p *Program) error {
	sets := make([]map[int]bool, len(p.Loops))
	for i, l := range p.Loops {
		set := map[int]bool{l.Header: true}
		var stack []int
		for _, e := range l.Back {
			if !set[e.From] {
				set[e.From] = true
				stack = append(stack, e.From)
			}
		}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, q := range p.Blocks[n].Preds {
				if !set[q] {
					set[q] = true
					stack = append(stack, q)
				}
			}
		}
		sets[i] = set
		l.Blocks = l.Blocks[:0]
		for id := range set {
			l.Blocks = append(l.Blocks, id)
		}
		sort.Ints(l.Blocks)
		l.Entries = l.Entries[:0]
		for _, q := range p.Blocks[l.Header].Preds {
			if !set[q] {
				l.Entries = append(l.Entries, Edge{From: q, To: l.Header})
			}
		}
	}

	// Innermost loop per block: the smallest containing member set.
	for _, blk := range p.Blocks {
		best := -1
		for i := range p.Loops {
			if !sets[i][blk.ID] {
				continue
			}
			if best == -1 || len(sets[i]) < len(sets[best]) {
				best = i
			}
		}
		blk.Loop = best
	}

	// Parent: the smallest loop strictly containing the header (other
	// than the loop itself). Builder-produced loops are properly nested,
	// so containment of the header implies containment of the whole loop.
	for i, l := range p.Loops {
		best := -1
		for j := range p.Loops {
			if j == i || !sets[j][l.Header] {
				continue
			}
			if len(sets[j]) <= len(sets[i]) {
				return fmt.Errorf("loops %d and %d are not properly nested", i, j)
			}
			if best == -1 || len(sets[j]) < len(sets[best]) {
				best = j
			}
		}
		l.Parent = best
	}
	return nil
}
