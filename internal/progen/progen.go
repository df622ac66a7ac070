// Package progen generates random structured programs for property-based
// testing. The generated programs exercise every Builder construct
// (straight-line code, nested bounded loops, if/else, switch, calls) and
// are guaranteed recursion-free, so every generator output builds into a
// valid analyzable CFG.
package progen

import (
	"fmt"
	"math/rand"

	"repro/internal/program"
)

// Params tunes the shape of generated programs.
type Params struct {
	// MaxDepth bounds the nesting of loops/conditionals.
	MaxDepth int
	// MaxItems bounds the number of statements per body.
	MaxItems int
	// MaxOps bounds the size of straight-line runs.
	MaxOps int
	// MaxBound bounds loop bounds.
	MaxBound int64
	// Helpers is the number of callable helper functions.
	Helpers int
	// DataBlocks, when positive, makes the generator emit scalar
	// loads/stores drawn from a pool of this many distinct data
	// addresses (for data-cache analysis testing).
	DataBlocks int
}

// DefaultParams returns generation parameters producing small programs
// suitable for exhaustive validation against concrete simulation.
func DefaultParams() Params {
	return Params{MaxDepth: 3, MaxItems: 4, MaxOps: 8, MaxBound: 5, Helpers: 3}
}

// Random generates a random program. Helper function i may only call
// helpers with larger indices, which rules out recursion by construction.
func Random(rng *rand.Rand, p Params) *program.Program {
	if p.MaxDepth < 1 {
		p.MaxDepth = 1
	}
	if p.MaxItems < 1 {
		p.MaxItems = 1
	}
	if p.MaxOps < 1 {
		p.MaxOps = 1
	}
	if p.MaxBound < 1 {
		p.MaxBound = 1
	}
	g := &gen{rng: rng, p: p}
	b := program.New(fmt.Sprintf("random-%d", rng.Int63()))
	g.fill(b.Func("main"), p.MaxDepth, 0)
	for h := 0; h < p.Helpers; h++ {
		g.fill(b.Func(helperName(h)), p.MaxDepth-1, h+1)
	}
	return b.MustBuild()
}

func helperName(i int) string { return fmt.Sprintf("helper%d", i) }

type gen struct {
	rng *rand.Rand
	p   Params
}

// fill populates a body. minHelper is the smallest helper index this body
// may call (main uses 0; helper i uses i+1).
func (g *gen) fill(bd *program.Body, depth, minHelper int) {
	n := 1 + g.rng.Intn(g.p.MaxItems)
	for i := 0; i < n; i++ {
		g.item(bd, depth, minHelper)
	}
	// Guarantee at least one instruction so bodies are never empty.
	bd.Ops(1 + g.rng.Intn(g.p.MaxOps))
}

func (g *gen) item(bd *program.Body, depth, minHelper int) {
	canCall := minHelper < g.p.Helpers
	if g.p.DataBlocks > 0 && g.rng.Intn(3) == 0 {
		// Scalar data access at a pooled address (4-byte aligned, far
		// from the code region).
		addr := 0x100000 + uint32(g.rng.Intn(g.p.DataBlocks))*4
		if g.rng.Intn(3) == 0 {
			bd.Store(addr)
		} else {
			bd.Load(addr)
		}
	}
	choice := g.rng.Intn(10)
	switch {
	case choice < 4 || depth <= 0:
		bd.Ops(1 + g.rng.Intn(g.p.MaxOps))
	case choice < 6:
		bound := 1 + g.rng.Int63n(g.p.MaxBound)
		bd.Loop(bound, func(inner *program.Body) { g.fill(inner, depth-1, minHelper) })
	case choice < 8:
		if g.rng.Intn(2) == 0 {
			bd.If(func(t *program.Body) { g.fill(t, depth-1, minHelper) }, nil)
		} else {
			bd.If(
				func(t *program.Body) { g.fill(t, depth-1, minHelper) },
				func(e *program.Body) { g.fill(e, depth-1, minHelper) },
			)
		}
	case choice < 9 && canCall:
		callee := minHelper + g.rng.Intn(g.p.Helpers-minHelper)
		bd.Call(helperName(callee))
	default:
		ncases := 2 + g.rng.Intn(2)
		cases := make([]func(*program.Body), ncases)
		for c := range cases {
			cases[c] = func(cb *program.Body) { g.fill(cb, depth-1, minHelper) }
		}
		bd.Switch(cases...)
	}
}
