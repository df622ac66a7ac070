// Package program provides a structured mini-IR for authoring benchmark
// programs, a deterministic assembler that lays them out as a MIPS-like
// stream of fixed-size instructions, and the control-flow graph (CFG) the
// WCET analyses operate on.
//
// This package replaces the paper's "MIPS R2000/R3000 binary code compiled
// with gcc 4.1" substrate: the static analyses only consume (a) the
// instruction addresses covered by each basic block and (b) the CFG with
// loop bounds, which is exactly what this package produces. Calls are
// virtually inlined (one CFG copy per call context, as in Heptane), while
// preserving callee addresses so shared code keeps a shared cache
// footprint.
package program

import "fmt"

// InstrBytes is the size of one instruction in bytes (MIPS-like fixed
// 32-bit encoding).
const InstrBytes = 4

// DataAccess is a data-memory access issued by one instruction of a
// block (a scalar load or store at a statically-known address). Data
// accesses drive the data-cache analysis, the future-work extension of
// the paper's Section VI.
type DataAccess struct {
	// Index is the issuing instruction's position within the block.
	Index int
	// Addr is the byte address of the accessed datum.
	Addr uint32
	// Store marks write accesses (the analysis treats them as
	// write-allocate loads; see internal/core).
	Store bool
}

// Block is a basic block of the assembled program: NumInstr consecutive
// instructions starting at Addr, with CFG edges to successor blocks.
type Block struct {
	// ID is the block's index in Program.Blocks.
	ID int
	// Addr is the byte address of the block's first instruction.
	Addr uint32
	// NumInstr is the number of instructions in the block (may be 0 for
	// structural join blocks, which cost nothing and issue no fetches).
	NumInstr int
	// Data lists the block's data accesses in issue order.
	Data []DataAccess
	// Succs and Preds are CFG edges, as block IDs.
	Succs, Preds []int
	// Func is the name of the function this block was emitted from
	// (shared between call contexts).
	Func string
	// Loop is the ID of the innermost loop containing the block, or -1.
	Loop int
}

// Edge is a directed CFG edge.
type Edge struct{ From, To int }

// Loop describes a natural loop of the CFG with a user-provided bound.
type Loop struct {
	// ID is the loop's index in Program.Loops.
	ID int
	// Header is the block ID of the loop header (the condition test).
	Header int
	// Bound is the maximum number of body executions per loop entry.
	Bound int64
	// Parent is the ID of the enclosing loop, or -1 for outermost loops.
	Parent int
	// BodySucc and ExitSucc are the header's successors entering the body
	// and leaving the loop, respectively.
	BodySucc, ExitSucc int
	// Back are the back edges (latch -> header).
	Back []Edge
	// Entries are the edges entering the header from outside the loop.
	Entries []Edge
	// Blocks lists the member block IDs (header included).
	Blocks []int
}

// FuncInfo records the address range of a function for reporting.
type FuncInfo struct {
	Name       string
	Addr       uint32
	NumInstr   int
	NumInlined int // number of call contexts instantiated
}

// Program is an assembled benchmark: a CFG over address-mapped basic
// blocks, with loop bounds. It is immutable after Build.
type Program struct {
	Name   string
	Blocks []*Block
	Loops  []*Loop
	Funcs  []FuncInfo
	// Entry and Exit are block IDs of the unique entry and exit.
	Entry, Exit int
}

// NumInstructions returns the total static instruction count (code size /
// InstrBytes). Inlined call contexts share addresses, so this counts each
// function's code once.
func (p *Program) NumInstructions() int {
	n := 0
	for _, f := range p.Funcs {
		n += f.NumInstr
	}
	return n
}

// CodeBytes returns the static code size in bytes.
func (p *Program) CodeBytes() int { return p.NumInstructions() * InstrBytes }

// Validate checks structural invariants of the assembled program. A nil
// return guarantees the CFG is usable by the analyses: consistent edges,
// reachable exit, positive bounds, headers with exactly two successors.
func (p *Program) Validate() error {
	if len(p.Blocks) == 0 {
		return fmt.Errorf("program %s: no blocks", p.Name)
	}
	for i, b := range p.Blocks {
		if b.ID != i {
			return fmt.Errorf("program %s: block %d has ID %d", p.Name, i, b.ID)
		}
		if b.NumInstr < 0 {
			return fmt.Errorf("program %s: block %d has negative size", p.Name, i)
		}
		for _, s := range b.Succs {
			if s < 0 || s >= len(p.Blocks) {
				return fmt.Errorf("program %s: block %d has out-of-range successor %d", p.Name, i, s)
			}
			if !contains(p.Blocks[s].Preds, i) {
				return fmt.Errorf("program %s: edge %d->%d missing from preds", p.Name, i, s)
			}
		}
		for _, q := range b.Preds {
			if !contains(p.Blocks[q].Succs, i) {
				return fmt.Errorf("program %s: pred edge %d->%d missing from succs", p.Name, q, i)
			}
		}
	}
	if len(p.Blocks[p.Exit].Succs) != 0 {
		return fmt.Errorf("program %s: exit block %d has successors", p.Name, p.Exit)
	}
	if len(p.Blocks[p.Entry].Preds) != 0 {
		return fmt.Errorf("program %s: entry block %d has predecessors", p.Name, p.Entry)
	}
	// Every block reachable from entry must reach exit (no traps).
	seen := make([]bool, len(p.Blocks))
	var stack []int
	stack = append(stack, p.Entry)
	seen[p.Entry] = true
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range p.Blocks[n].Succs {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	if !seen[p.Exit] {
		return fmt.Errorf("program %s: exit unreachable from entry", p.Name)
	}
	for _, l := range p.Loops {
		if l.Bound < 1 {
			return fmt.Errorf("program %s: loop %d has bound %d < 1", p.Name, l.ID, l.Bound)
		}
		if len(l.Back) == 0 {
			return fmt.Errorf("program %s: loop %d has no back edge", p.Name, l.ID)
		}
		for _, e := range l.Back {
			if e.To != l.Header {
				return fmt.Errorf("program %s: loop %d back edge %v does not target header %d",
					p.Name, l.ID, e, l.Header)
			}
		}
		if len(l.Entries) == 0 {
			return fmt.Errorf("program %s: loop %d has no entry edge", p.Name, l.ID)
		}
	}
	return nil
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
