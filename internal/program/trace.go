package program

import (
	"fmt"
	"math/rand"
)

// Chooser selects the successor to follow at a branch block that is not a
// loop header (if/switch). It receives the block ID and its successors and
// must return one element of succs.
type Chooser func(block int, succs []int) int

// RandomChooser returns a Chooser drawing uniformly from the successors
// using the given source.
func RandomChooser(rng *rand.Rand) Chooser {
	return func(_ int, succs []int) int { return succs[rng.Intn(len(succs))] }
}

// Trace executes the program symbolically and returns the sequence of
// instruction fetch addresses. Loops iterate exactly their bound; at other
// branches the chooser decides. maxInstrs caps the trace length and
// returns an error when exceeded (guards against mis-built CFGs).
func (p *Program) Trace(choose Chooser, maxInstrs int) ([]uint32, error) {
	headerLoop := make(map[int]*Loop, len(p.Loops))
	for _, l := range p.Loops {
		headerLoop[l.Header] = l
	}

	type frame struct {
		loop      *Loop
		remaining int64
	}
	var stack []frame
	out := make([]uint32, 0, 1024)
	cur := p.Entry
	for {
		b := p.Blocks[cur]
		if len(out)+b.NumInstr > maxInstrs {
			return nil, fmt.Errorf("program %s: trace exceeds %d instructions", p.Name, maxInstrs)
		}
		for i := 0; i < b.NumInstr; i++ {
			out = append(out, b.Addr+uint32(i*InstrBytes))
		}
		if cur == p.Exit {
			return out, nil
		}

		var next int
		switch l := headerLoop[cur]; {
		case l != nil:
			if len(stack) > 0 && stack[len(stack)-1].loop == l {
				top := &stack[len(stack)-1]
				if top.remaining > 0 {
					top.remaining--
					next = l.BodySucc
				} else {
					stack = stack[:len(stack)-1]
					next = l.ExitSucc
				}
			} else {
				stack = append(stack, frame{loop: l, remaining: l.Bound - 1})
				next = l.BodySucc
			}
		case len(b.Succs) == 1:
			next = b.Succs[0]
		case len(b.Succs) == 0:
			return nil, fmt.Errorf("program %s: dead end at block %d", p.Name, cur)
		default:
			next = choose(cur, b.Succs)
			if !contains(b.Succs, next) {
				return nil, fmt.Errorf("program %s: chooser returned %d, not a successor of %d", p.Name, next, cur)
			}
		}
		cur = next
	}
}

// Access is one memory operation of an execution trace: an instruction
// fetch or a data access issued by a load/store instruction.
type Access struct {
	Addr  uint32
	Data  bool
	Store bool
}

// TraceAccesses is like Trace but interleaves data accesses with the
// instruction fetches that issue them, for joint I-cache/D-cache
// simulation.
func (p *Program) TraceAccesses(choose Chooser, maxLen int) ([]Access, error) {
	blocks, err := p.TraceBlocks(choose, maxLen)
	if err != nil {
		return nil, err
	}
	out := make([]Access, 0, 4*len(blocks))
	for _, id := range blocks {
		b := p.Blocks[id]
		di := 0
		for i := 0; i < b.NumInstr; i++ {
			if len(out)+2 > maxLen {
				return nil, fmt.Errorf("program %s: access trace exceeds %d entries", p.Name, maxLen)
			}
			out = append(out, Access{Addr: b.Addr + uint32(i*InstrBytes)})
			for di < len(b.Data) && b.Data[di].Index == i {
				out = append(out, Access{Addr: b.Data[di].Addr, Data: true, Store: b.Data[di].Store})
				di++
			}
		}
	}
	return out, nil
}

// TraceBlocks is like Trace but returns the sequence of visited block IDs
// instead of instruction addresses.
func (p *Program) TraceBlocks(choose Chooser, maxBlocks int) ([]int, error) {
	headerLoop := make(map[int]*Loop, len(p.Loops))
	for _, l := range p.Loops {
		headerLoop[l.Header] = l
	}
	type frame struct {
		loop      *Loop
		remaining int64
	}
	var stack []frame
	var out []int
	cur := p.Entry
	for {
		if len(out) >= maxBlocks {
			return nil, fmt.Errorf("program %s: block trace exceeds %d blocks", p.Name, maxBlocks)
		}
		out = append(out, cur)
		if cur == p.Exit {
			return out, nil
		}
		b := p.Blocks[cur]
		var next int
		switch l := headerLoop[cur]; {
		case l != nil:
			if len(stack) > 0 && stack[len(stack)-1].loop == l {
				top := &stack[len(stack)-1]
				if top.remaining > 0 {
					top.remaining--
					next = l.BodySucc
				} else {
					stack = stack[:len(stack)-1]
					next = l.ExitSucc
				}
			} else {
				stack = append(stack, frame{loop: l, remaining: l.Bound - 1})
				next = l.BodySucc
			}
		case len(b.Succs) == 1:
			next = b.Succs[0]
		case len(b.Succs) == 0:
			return nil, fmt.Errorf("program %s: dead end at block %d", p.Name, cur)
		default:
			next = choose(cur, b.Succs)
		}
		cur = next
	}
}
