// Package ipet implements WCET calculation by the Implicit Path
// Enumeration Technique (Li & Malik, DAC 1995), the high-level analysis
// of Section II.B.2, and the Fault Miss Map (FMM) computation of
// Section II.C / III.B.
//
// The ILP has one variable per CFG edge (plus a virtual source and sink).
// Structural constraints equate each block's in-flow and out-flow; loop
// bound constraints bound back-edge counts relative to loop entry counts.
// All FMM objectives reuse one constraint system through the warm-started
// simplex, which is what makes the S*W per-set solves cheap.
package ipet

import (
	"fmt"
	"math"

	"repro/internal/lp"
	"repro/internal/program"
)

// System is the IPET constraint system of one program: a reusable
// (warm-started) LP over edge-count variables.
type System struct {
	p       *program.Program
	numVars int
	cons    []lp.Constraint
	// inVars[b] lists the variable indices of b's incoming edges (the
	// virtual source for the entry block).
	inVars [][]int
	sx     *lp.Simplex
	ref    bool
	// obj is the per-System objective scratch of MaximizeBlockWeights.
	// A System is driven by one goroutine at a time (workers Clone);
	// reusing the buffer keeps the S*W FMM objectives allocation-free.
	obj []float64
}

// NewSystem builds the structural and loop-bound constraints for the
// program and runs simplex phase 1 once, on the compacted sparse
// simplex of internal/lp.
func NewSystem(p *program.Program) (*System, error) {
	return newSystem(p, false)
}

// NewReferenceSystem is NewSystem on lp.NewReferenceSimplex — the
// retained dense solver. Results are bit-identical to NewSystem's (the
// differential suites assert it); it exists so whole-pipeline runs can
// be validated against the reference implementation.
func NewReferenceSystem(p *program.Program) (*System, error) {
	return newSystem(p, true)
}

func newSystem(p *program.Program, ref bool) (*System, error) {
	s := &System{p: p, inVars: make([][]int, len(p.Blocks)), ref: ref}

	edgeVar := make(map[program.Edge]int)
	outVars := make([][]int, len(p.Blocks))
	for _, b := range p.Blocks {
		for _, succ := range b.Succs {
			e := program.Edge{From: b.ID, To: succ}
			if _, dup := edgeVar[e]; dup {
				return nil, fmt.Errorf("ipet: duplicate edge %v", e)
			}
			v := s.numVars
			s.numVars++
			edgeVar[e] = v
			outVars[b.ID] = append(outVars[b.ID], v)
			s.inVars[succ] = append(s.inVars[succ], v)
		}
	}
	source := s.numVars
	s.numVars++
	sink := s.numVars
	s.numVars++
	s.inVars[p.Entry] = append(s.inVars[p.Entry], source)
	outVars[p.Exit] = append(outVars[p.Exit], sink)

	// The program executes exactly once.
	s.cons = append(s.cons, lp.Constraint{
		Coefs: []lp.Coef{{Var: source, Val: 1}},
		Op:    lp.EQ,
		RHS:   1,
	})
	// Flow conservation per block.
	for _, b := range s.p.Blocks {
		var cf []lp.Coef
		for _, v := range s.inVars[b.ID] {
			cf = append(cf, lp.Coef{Var: v, Val: 1})
		}
		for _, v := range outVars[b.ID] {
			cf = append(cf, lp.Coef{Var: v, Val: -1})
		}
		s.cons = append(s.cons, lp.Constraint{Coefs: cf, Op: lp.EQ, RHS: 0})
	}
	// Loop bounds: sum(back) <= bound * sum(entries).
	for _, l := range p.Loops {
		var cf []lp.Coef
		for _, e := range l.Back {
			v, ok := edgeVar[e]
			if !ok {
				return nil, fmt.Errorf("ipet: loop %d back edge %v not in CFG", l.ID, e)
			}
			cf = append(cf, lp.Coef{Var: v, Val: 1})
		}
		for _, e := range l.Entries {
			v, ok := edgeVar[e]
			if !ok {
				return nil, fmt.Errorf("ipet: loop %d entry edge %v not in CFG", l.ID, e)
			}
			cf = append(cf, lp.Coef{Var: v, Val: -float64(l.Bound)})
		}
		s.cons = append(s.cons, lp.Constraint{Coefs: cf, Op: lp.LE, RHS: 0})
	}

	newSimplex := lp.NewSimplex
	if ref {
		newSimplex = lp.NewReferenceSimplex
	}
	sx, err := newSimplex(s.numVars, s.cons)
	if err != nil {
		return nil, err
	}
	if !sx.Feasible() {
		return nil, fmt.Errorf("ipet: structural constraints infeasible for program %s", p.Name)
	}
	s.sx = sx
	return s, nil
}

// Result is the outcome of one IPET maximization.
type Result struct {
	// Objective is the maximal value of the weighted block counts plus
	// the caller's constant term.
	Objective float64
	// BlockCounts holds the execution count of every block on the
	// witness worst-case path.
	BlockCounts []float64
	// Integral records whether the warm LP relaxation was already
	// integral (true for virtually all IPET systems) or branch & bound
	// had to run.
	Integral bool
}

// MaximizeBlockWeights maximizes sum_b weights[b] * count(b) + constant
// over all structurally feasible paths. weights must have one entry per
// block and be non-negative for soundness of the warm-start reuse.
func (s *System) MaximizeBlockWeights(weights []float64, constant float64) (*Result, error) {
	if len(weights) != len(s.p.Blocks) {
		return nil, fmt.Errorf("ipet: %d weights for %d blocks", len(weights), len(s.p.Blocks))
	}
	if s.obj == nil {
		s.obj = make([]float64, s.numVars)
	}
	obj := s.obj
	clear(obj)
	for b, w := range weights {
		if w == 0 {
			continue
		}
		for _, v := range s.inVars[b] {
			obj[v] += w
		}
	}

	sol, err := s.sx.Maximize(obj)
	if err != nil {
		return nil, err
	}
	switch sol.Status {
	case lp.Optimal:
		// fall through to the integrality check below
	case lp.Infeasible:
		return nil, fmt.Errorf("ipet: infeasible system for program %s", s.p.Name)
	case lp.Unbounded:
		return nil, fmt.Errorf("ipet: unbounded objective for program %s (missing loop bound?)", s.p.Name)
	default:
		panic(fmt.Sprintf("ipet: unknown LP status %v", sol.Status))
	}

	integral := lp.IsIntegral(sol.X)
	x := sol.X
	objVal := sol.Obj
	if !integral {
		// Rare: fall back to a cold branch & bound solve.
		isol, err := lp.SolveILP(lp.Problem{NumVars: s.numVars, Obj: obj, Cons: s.cons})
		if err != nil {
			return nil, err
		}
		if isol.Status != lp.Optimal {
			return nil, fmt.Errorf("ipet: ILP fallback returned %v", isol.Status)
		}
		x = isol.X
		objVal = isol.Obj
	}

	counts := make([]float64, len(s.p.Blocks))
	for b := range s.p.Blocks {
		c := 0.0
		for _, v := range s.inVars[b] {
			c += x[v]
		}
		counts[b] = math.Round(c)
	}
	return &Result{Objective: objVal + constant, BlockCounts: counts, Integral: integral}, nil
}

// Clone returns a System that shares the program, constraints and edge
// maps (all read-only after NewSystem) but owns a private copy of the
// warm simplex state (and a private objective scratch). Clones can run
// MaximizeBlockWeights concurrently with each other and with the
// receiver; phase 1 is not redone.
func (s *System) Clone() *System {
	return &System{
		p:       s.p,
		numVars: s.numVars,
		cons:    s.cons,
		inVars:  s.inVars,
		sx:      s.sx.Clone(),
		ref:     s.ref,
	}
}

// resetFrom restores the clone's simplex to src's current basis without
// allocating; see lp.Simplex.CopyFrom.
func (s *System) resetFrom(src *System) error { return s.sx.CopyFrom(src.sx) }

// SetCancel installs (or, with nil, removes) a cancellation probe on
// the system's simplex: every subsequent MaximizeBlockWeights consults
// it between pivot batches and abandons the solve with the probe's
// error — typically a context.Context's Err method. The probe is
// per-System state: clones start without one, and resetFrom never
// copies it. See lp.Simplex.SetCancel.
func (s *System) SetCancel(probe func() error) { s.sx.SetCancel(probe) }
