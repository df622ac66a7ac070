package program

import "fmt"

// Builder assembles a named program from structured function definitions.
// Functions are laid out in memory in definition order, starting at
// address 0; the first function defined is the program entry point.
type Builder struct {
	name  string
	funcs map[string]*funcDef
	order []string
	err   error
}

// New returns a Builder for a program with the given name. Programs are
// laid out starting at address 0 by default (the paper uses the default
// gcc/linker layout; the analyses only depend on relative placement).
func New(name string) *Builder {
	return &Builder{name: name, funcs: make(map[string]*funcDef)}
}

// Func defines a function and returns the Body used to populate it.
// The first function defined is the entry point. Defining the same name
// twice is an error reported by Build.
func (b *Builder) Func(name string) *Body {
	body := &Body{builder: b}
	if _, dup := b.funcs[name]; dup {
		b.fail(fmt.Errorf("function %q defined twice", name))
		return body
	}
	b.funcs[name] = &funcDef{name: name, body: body}
	b.order = append(b.order, name)
	return body
}

func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

type funcDef struct {
	name string
	body *Body
}

// Body is a sequence of structured statements inside a function, loop
// body, conditional branch or switch case.
type Body struct {
	builder *Builder
	items   []item
}

type itemKind int

const (
	itemOps itemKind = iota
	itemLoop
	itemIf
	itemCall
	itemSwitch
	itemLoad
	itemStore
)

type item struct {
	kind   itemKind
	n      int     // itemOps: instruction count
	bound  int64   // itemLoop
	body   *Body   // itemLoop
	then   *Body   // itemIf
	els    *Body   // itemIf (nil for if-without-else)
	callee string  // itemCall
	cases  []*Body // itemSwitch
	addr   uint32  // itemLoad/itemStore: data address
}

// Ops appends n straight-line instructions (arithmetic, loads of
// immediates, ... — anything without control flow). n must be positive.
func (bd *Body) Ops(n int) *Body {
	if n <= 0 {
		bd.builder.fail(fmt.Errorf("Ops(%d): count must be positive", n))
		return bd
	}
	bd.items = append(bd.items, item{kind: itemOps, n: n})
	return bd
}

// Loop appends a counted loop whose body executes at most bound times per
// entry of the loop. The loop header costs 2 instructions per test
// (condition + branch) and the body ends with a 1-instruction jump back.
func (bd *Body) Loop(bound int64, f func(*Body)) *Body {
	if bound < 1 {
		bd.builder.fail(fmt.Errorf("Loop(%d): bound must be >= 1", bound))
		return bd
	}
	inner := &Body{builder: bd.builder}
	if f != nil {
		f(inner)
	}
	bd.items = append(bd.items, item{kind: itemLoop, bound: bound, body: inner})
	return bd
}

// If appends a two-way conditional. els may be nil for an if-without-else.
// The condition costs 1 instruction; a taken then-branch with an else
// costs 1 extra jump instruction.
func (bd *Body) If(then, els func(*Body)) *Body {
	t := &Body{builder: bd.builder}
	if then != nil {
		then(t)
	}
	var e *Body
	if els != nil {
		e = &Body{builder: bd.builder}
		els(e)
	}
	bd.items = append(bd.items, item{kind: itemIf, then: t, els: e})
	return bd
}

// Call appends a call to the named function (1 instruction at the call
// site). The callee is virtually inlined at Build time; recursion is
// rejected.
func (bd *Body) Call(name string) *Body {
	bd.items = append(bd.items, item{kind: itemCall, callee: name})
	return bd
}

// Load appends one load instruction reading the scalar at the given
// data address. Data accesses feed the data-cache analysis (the paper's
// future-work extension); programs without loads/stores analyze the
// instruction cache only.
func (bd *Body) Load(addr uint32) *Body {
	bd.items = append(bd.items, item{kind: itemLoad, addr: addr})
	return bd
}

// Store appends one store instruction writing the scalar at the given
// data address (analyzed as a write-allocate access).
func (bd *Body) Store(addr uint32) *Body {
	bd.items = append(bd.items, item{kind: itemStore, addr: addr})
	return bd
}

// Switch appends an n-way branch (1 dispatch instruction) whose cases each
// end with a jump to the common join point. At least two cases are
// required; use If for two-way conditionals with fall-through semantics.
func (bd *Body) Switch(cases ...func(*Body)) *Body {
	if len(cases) < 2 {
		bd.builder.fail(fmt.Errorf("Switch with %d cases: need at least 2", len(cases)))
		return bd
	}
	cs := make([]*Body, len(cases))
	for i, f := range cases {
		cs[i] = &Body{builder: bd.builder}
		if f != nil {
			f(cs[i])
		}
	}
	bd.items = append(bd.items, item{kind: itemSwitch, cases: cs})
	return bd
}
