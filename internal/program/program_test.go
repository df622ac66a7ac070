package program

import (
	"math/rand"
	"testing"
)

func TestStraightLine(t *testing.T) {
	b := New("straight")
	b.Func("main").Ops(10)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := p.NumInstructions(); got != 11 { // 10 ops + return
		t.Errorf("NumInstructions = %d, want 11", got)
	}
	if len(p.Blocks) != 1 {
		t.Fatalf("blocks = %d, want 1", len(p.Blocks))
	}
	if p.Entry != p.Exit {
		t.Error("straight-line program must have entry == exit")
	}
	tr, err := p.Trace(firstChooser, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != 11 {
		t.Errorf("trace length = %d, want 11", len(tr))
	}
	for i, a := range tr {
		if a != uint32(i*InstrBytes) {
			t.Fatalf("trace[%d] = %#x, want %#x", i, a, i*InstrBytes)
		}
	}
}

func TestLoopStructure(t *testing.T) {
	b := New("loop")
	b.Func("main").Ops(2).Loop(5, func(l *Body) { l.Ops(3) }).Ops(1)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Loops) != 1 {
		t.Fatalf("loops = %d, want 1", len(p.Loops))
	}
	l := p.Loops[0]
	if l.Bound != 5 {
		t.Errorf("bound = %d, want 5", l.Bound)
	}
	if l.Parent != -1 {
		t.Errorf("parent = %d, want -1", l.Parent)
	}
	hd := p.Blocks[l.Header]
	if hd.NumInstr != 2 {
		t.Errorf("header size = %d, want 2", hd.NumInstr)
	}
	if len(hd.Succs) != 2 {
		t.Fatalf("header successors = %d, want 2", len(hd.Succs))
	}
	// Total instructions: 2 (pre) + 2 (header) + 3 (body) + 1 (latch jump)
	// + 1 (post) + 1 (return) = 10.
	if got := p.NumInstructions(); got != 10 {
		t.Errorf("NumInstructions = %d, want 10", got)
	}
	// Trace: pre(2) + 6 header visits (2 each) + 5 iterations of (3+1) +
	// post(1) + return(1) = 2 + 12 + 20 + 2 = 36.
	tr, err := p.Trace(firstChooser, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != 36 {
		t.Errorf("trace length = %d, want 36", len(tr))
	}
}

func TestNestedLoops(t *testing.T) {
	b := New("nested")
	b.Func("main").Loop(3, func(outer *Body) {
		outer.Ops(1)
		outer.Loop(4, func(inner *Body) { inner.Ops(2) })
	})
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Loops) != 2 {
		t.Fatalf("loops = %d, want 2", len(p.Loops))
	}
	var outer, inner *Loop
	for _, l := range p.Loops {
		if l.Bound == 3 {
			outer = l
		} else if l.Bound == 4 {
			inner = l
		}
	}
	if outer == nil || inner == nil {
		t.Fatal("could not identify loops by bound")
	}
	if inner.Parent != outer.ID {
		t.Errorf("inner.Parent = %d, want %d", inner.Parent, outer.ID)
	}
	if outer.Parent != -1 {
		t.Errorf("outer.Parent = %d, want -1", outer.Parent)
	}
	if p.Blocks[inner.Header].Loop != inner.ID {
		t.Errorf("inner header innermost loop = %d, want %d", p.Blocks[inner.Header].Loop, inner.ID)
	}
	if p.Blocks[outer.Header].Loop != outer.ID {
		t.Errorf("outer header innermost loop = %d, want %d", p.Blocks[outer.Header].Loop, outer.ID)
	}
	// Inner body instructions appear 3*4 = 12 times in the trace.
	tr, err := p.Trace(firstChooser, 100000)
	if err != nil {
		t.Fatal(err)
	}
	innerBody := p.Blocks[inner.BodySucc]
	count := 0
	for _, a := range tr {
		if a == innerBody.Addr {
			count++
		}
	}
	if count != 12 {
		t.Errorf("inner body executed %d times, want 12", count)
	}
}

func TestIfElseLayoutAndTrace(t *testing.T) {
	b := New("ifelse")
	b.Func("main").
		Ops(1).
		If(func(then *Body) { then.Ops(5) }, func(els *Body) { els.Ops(7) }).
		Ops(2)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Layout: 1 op + 1 branch | then 5 + 1 jump | else 7 | join 2 + 1 ret.
	if got := p.NumInstructions(); got != 18 {
		t.Errorf("NumInstructions = %d, want 18", got)
	}
	// then path: 2 + 6 + 3 = 11 fetches; else path: 2 + 7 + 3 = 12.
	trThen, err := p.Trace(firstChooser, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(trThen) != 11 {
		t.Errorf("then trace = %d fetches, want 11", len(trThen))
	}
	second := func(_ int, succs []int) int { return succs[1] }
	trElse, err := p.Trace(second, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(trElse) != 12 {
		t.Errorf("else trace = %d fetches, want 12", len(trElse))
	}
}

func TestIfWithoutElse(t *testing.T) {
	b := New("ifnoelse")
	b.Func("main").If(func(then *Body) { then.Ops(3) }, nil)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// 1 branch + 3 then + 1 return = 5.
	if got := p.NumInstructions(); got != 5 {
		t.Errorf("NumInstructions = %d, want 5", got)
	}
	tr, _ := p.Trace(firstChooser, 100)
	if len(tr) != 5 {
		t.Errorf("then trace = %d, want 5", len(tr))
	}
	second := func(_ int, succs []int) int { return succs[1] }
	tr2, _ := p.Trace(second, 100)
	if len(tr2) != 2 {
		t.Errorf("skip trace = %d, want 2 (branch + return)", len(tr2))
	}
}

func TestSwitch(t *testing.T) {
	b := New("switch")
	b.Func("main").Switch(
		func(c *Body) { c.Ops(2) },
		func(c *Body) { c.Ops(4) },
		func(c *Body) { c.Ops(6) },
	)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// 1 dispatch + (2+1) + (4+1) + (6+1) + 1 return = 17.
	if got := p.NumInstructions(); got != 17 {
		t.Errorf("NumInstructions = %d, want 17", got)
	}
	for i, want := range []int{1 + 3 + 1, 1 + 5 + 1, 1 + 7 + 1} {
		i := i
		tr, err := p.Trace(func(_ int, succs []int) int { return succs[i] }, 100)
		if err != nil {
			t.Fatal(err)
		}
		if len(tr) != want {
			t.Errorf("case %d trace = %d fetches, want %d", i, len(tr), want)
		}
	}
}

func TestCallSharedAddresses(t *testing.T) {
	b := New("calls")
	b.Func("main").Call("leaf").Ops(1).Call("leaf")
	b.Func("leaf").Ops(4)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Two contexts of leaf instantiated.
	var leafInfo FuncInfo
	for _, f := range p.Funcs {
		if f.Name == "leaf" {
			leafInfo = f
		}
	}
	if leafInfo.NumInlined != 2 {
		t.Errorf("leaf inlined %d times, want 2", leafInfo.NumInlined)
	}
	// Both contexts cover the same addresses.
	var leafBlocks []*Block
	for _, blk := range p.Blocks {
		if blk.Func == "leaf" {
			leafBlocks = append(leafBlocks, blk)
		}
	}
	if len(leafBlocks) != 2 {
		t.Fatalf("leaf block copies = %d, want 2", len(leafBlocks))
	}
	if leafBlocks[0].Addr != leafBlocks[1].Addr || leafBlocks[0].NumInstr != leafBlocks[1].NumInstr {
		t.Error("leaf contexts must share the same address range")
	}
	// The trace visits the leaf address range twice.
	tr, err := p.Trace(firstChooser, 1000)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, a := range tr {
		if a == leafBlocks[0].Addr {
			count++
		}
	}
	if count != 2 {
		t.Errorf("leaf entry fetched %d times, want 2", count)
	}
}

func TestCallInLoop(t *testing.T) {
	b := New("callloop")
	b.Func("main").Loop(10, func(l *Body) { l.Call("work") })
	b.Func("work").Ops(3)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := p.Trace(firstChooser, 10000)
	if err != nil {
		t.Fatal(err)
	}
	// work body (3 ops + return = 4 instr) executed 10 times.
	var workAddr uint32
	for _, f := range p.Funcs {
		if f.Name == "work" {
			workAddr = f.Addr
		}
	}
	count := 0
	for _, a := range tr {
		if a == workAddr {
			count++
		}
	}
	if count != 10 {
		t.Errorf("work entered %d times, want 10", count)
	}
}

func TestRecursionRejected(t *testing.T) {
	b := New("rec")
	b.Func("main").Call("a")
	b.Func("a").Call("b")
	b.Func("b").Call("a")
	if _, err := b.Build(); err == nil {
		t.Error("mutual recursion not rejected")
	}
	b2 := New("selfrec")
	b2.Func("main").Call("main")
	if _, err := b2.Build(); err == nil {
		t.Error("self recursion not rejected")
	}
}

func TestBuilderErrors(t *testing.T) {
	b := New("bad")
	b.Func("main").Ops(0)
	if _, err := b.Build(); err == nil {
		t.Error("Ops(0) not rejected")
	}
	b2 := New("bad2")
	b2.Func("main").Loop(0, func(*Body) {})
	if _, err := b2.Build(); err == nil {
		t.Error("Loop(0) not rejected")
	}
	b3 := New("bad3")
	b3.Func("main")
	b3.Func("main")
	if _, err := b3.Build(); err == nil {
		t.Error("duplicate function not rejected")
	}
	b4 := New("bad4")
	b4.Func("main").Call("missing")
	if _, err := b4.Build(); err == nil {
		t.Error("call to undefined function not rejected")
	}
	b5 := New("bad5")
	if _, err := b5.Build(); err == nil {
		t.Error("empty program not rejected")
	}
	b6 := New("bad6")
	b6.Func("main").Switch(func(*Body) {})
	if _, err := b6.Build(); err == nil {
		t.Error("1-case switch not rejected")
	}
}

func TestFunctionLayoutSequential(t *testing.T) {
	b := New("layout")
	b.Func("main").Ops(3).Call("f").Call("g")
	b.Func("f").Ops(8)
	b.Func("g").Ops(2)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Funcs[0].Addr != 0 {
		t.Errorf("main at %#x, want 0", p.Funcs[0].Addr)
	}
	// main: 3 ops + 2 calls + return = 6 instructions.
	if p.Funcs[1].Addr != 6*InstrBytes {
		t.Errorf("f at %#x, want %#x", p.Funcs[1].Addr, 6*InstrBytes)
	}
	// f: 8 + return = 9 instructions.
	if p.Funcs[2].Addr != (6+9)*InstrBytes {
		t.Errorf("g at %#x, want %#x", p.Funcs[2].Addr, (6+9)*InstrBytes)
	}
	// Address ranges of distinct functions must not overlap.
	var end uint32
	for _, blk := range p.Blocks {
		end = max(end, blk.Addr+uint32(blk.NumInstr*InstrBytes))
	}
	if end != (6+9+3)*InstrBytes {
		t.Errorf("code ends at %#x, want %#x", end, (6+9+3)*InstrBytes)
	}
}

func TestTraceDeterministic(t *testing.T) {
	p := buildComplex(t)
	t1, err := p.Trace(firstChooser, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := p.Trace(firstChooser, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if len(t1) != len(t2) {
		t.Fatal("trace not deterministic")
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("trace differs at %d", i)
		}
	}
}

func TestRandomTracesTerminate(t *testing.T) {
	p := buildComplex(t)
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		if _, err := p.Trace(RandomChooser(rng), 1e6); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// firstChooser always takes the first successor (the then-branch or the
// first case).
func firstChooser(_ int, succs []int) int { return succs[0] }

func buildComplex(t *testing.T) *Program {
	t.Helper()
	b := New("complex")
	b.Func("main").
		Ops(4).
		Loop(6, func(l *Body) {
			l.If(func(then *Body) {
				then.Call("helper")
			}, func(els *Body) {
				els.Ops(2).Switch(
					func(c *Body) { c.Ops(1) },
					func(c *Body) { c.Loop(3, func(i *Body) { i.Ops(2) }) },
				)
			})
		}).
		Call("helper")
	b.Func("helper").Loop(4, func(l *Body) { l.Ops(5) })
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestComplexValidates(t *testing.T) {
	p := buildComplex(t)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// helper is called from two contexts: inside the loop and after it;
	// each context has its own loop copy, so loops: main's loop + switch
	// case loop + 2 copies of helper's loop = 4.
	if len(p.Loops) != 4 {
		t.Errorf("loops = %d, want 4", len(p.Loops))
	}
	if p.Blocks[p.Exit].NumInstr == 0 {
		t.Log("exit block empty (join) — acceptable")
	}
}
