package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DefaultCriticalPackages are the determinism-critical packages
// mapiterdet guards: every package whose computation feeds the pWCET
// results (an unsorted iteration there changes atom order, accumulation
// order or block numbering and with them the bytes of the output), plus
// the commands and report layer that serialize those results.
var DefaultCriticalPackages = []string{
	"repro",
	"repro/internal/dist",
	"repro/internal/par",
	"repro/internal/lp",
	"repro/internal/ipet",
	"repro/internal/absint",
	"repro/internal/core",
	"repro/internal/cache",
	"repro/internal/fault",
	"repro/internal/chmc",
	"repro/internal/report",
	"repro/internal/program",
	"repro/internal/cfg",
	"repro/internal/sim",
	"repro/internal/progen",
	"repro/internal/malardalen",
	"repro/internal/batchspec",
	"repro/internal/serve",
	"repro/internal/faultpoint",
	"repro/cmd/pwcet",
	"repro/cmd/pwcetd",
	"repro/cmd/paperfigs",
	"repro/cmd/benchjson",
	"repro/cmd/soak",
}

// MapIterDet returns the mapiterdet analyzer restricted to the given
// package paths. It flags every `range` over a map in those packages
// unless the loop is provably order-insensitive:
//
//   - the body only collects keys/values into a slice that is passed to
//     a sort or slices call later in the same function
//     (collect-then-sort), or
//   - every statement commutes across iterations: plain stores into
//     another container indexed by exactly the iteration key (distinct
//     iterations write distinct entries), delete(m, key), exact
//     commutative scalar updates (integer/boolean +=/-=/++/--, |=, &=,
//     ^=) and constant stores — with no statement reading a variable
//     the body also writes. Floating-point accumulation never
//     qualifies: float addition is not bitwise-commutative.
//
// Anything else needs an explicit reviewed justification:
//
//	//pwcetlint:ordered <why this site cannot affect results>
//
// on the `for` line or the line above.
func MapIterDet(critical []string) *Analyzer {
	set := make(map[string]bool, len(critical))
	for _, p := range critical {
		set[p] = true
	}
	a := &Analyzer{
		Name: "mapiterdet",
		Doc:  "flags range-over-map in determinism-critical packages unless provably order-insensitive or annotated //pwcetlint:ordered",
	}
	a.Run = func(pass *Pass) error {
		if !set[pass.Pkg.Path()] {
			return nil
		}
		for _, f := range pass.Files {
			var funcStack []ast.Node // enclosing FuncDecl/FuncLit chain
			var walk func(n ast.Node) bool
			walk = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl, *ast.FuncLit:
					body := funcBody(n)
					if body == nil {
						return false
					}
					funcStack = append(funcStack, n)
					ast.Inspect(body, walk)
					funcStack = funcStack[:len(funcStack)-1]
					return false
				case *ast.RangeStmt:
					t := pass.TypeOf(n.X)
					if t == nil {
						return true
					}
					if _, isMap := t.Underlying().(*types.Map); !isMap {
						return true
					}
					var encl ast.Node
					if len(funcStack) > 0 {
						encl = funcStack[len(funcStack)-1]
					}
					if !orderInsensitive(pass, n, encl) {
						pass.Reportf(n.For,
							"iteration over map %s has nondeterministic order; sort the keys first, make the body commutative, or annotate //pwcetlint:ordered with a justification",
							exprString(n.X))
					}
				}
				return true
			}
			ast.Inspect(f, walk)
		}
		return nil
	}
	return a
}

func funcBody(n ast.Node) ast.Node {
	switch n := n.(type) {
	case *ast.FuncDecl:
		if n.Body != nil {
			return n.Body
		}
	case *ast.FuncLit:
		if n.Body != nil {
			return n.Body
		}
	}
	return nil
}

// orderInsensitive reports whether the map-range loop provably computes
// the same result under any iteration order. The proof obligations:
// distinct iterations must touch disjoint state (plain stores indexed
// by the iteration key) or commute exactly (integer accumulation,
// constant stores, collect-then-sort), and no statement may read state
// another iteration writes.
func orderInsensitive(pass *Pass, loop *ast.RangeStmt, enclosing ast.Node) bool {
	st := &bodyState{
		pass:    pass,
		allowed: map[types.Object]bool{},
		keys:    map[types.Object]bool{},
		written: map[types.Object]bool{},
		loop:    loop,
	}
	for i, v := range []ast.Expr{loop.Key, loop.Value} {
		if id, ok := v.(*ast.Ident); ok && id.Name != "_" {
			obj := pass.Info.Defs[id]
			if obj == nil {
				obj = pass.Info.Uses[id] // `for k = range` assigning an outer var
			}
			if obj != nil {
				st.allowed[obj] = true
				if i == 0 {
					st.keys[obj] = true // the key is unique per iteration; the value is not
				}
			}
		}
	}
	st.collectWritten(loop.Body)
	for _, s := range loop.Body.List {
		if !st.stmtOK(s) {
			return false
		}
	}
	// Every slice the body appended to must be sorted afterwards in the
	// same function for the collect-then-sort pattern to hold.
	for _, path := range st.collected {
		if enclosing == nil || !sortedLater(pass, funcBody(enclosing), loop, path) {
			return false
		}
	}
	return true
}

// bodyState tracks the proof state for one loop body: allowed holds the
// iteration variables and the call-free locals derived from them, keys
// the subset unique per iteration, written the outer variables the body
// mutates (which no expression may then read), collected the rendered
// paths of collect-then-sort append targets.
type bodyState struct {
	pass      *Pass
	allowed   map[types.Object]bool
	keys      map[types.Object]bool
	written   map[types.Object]bool
	collected []string
	loop      *ast.RangeStmt
}

// collectWritten records the root object of every assignment target,
// ++/-- operand and delete()d map in the body — excluding locals
// declared inside the loop, whose lifetime is one iteration.
func (st *bodyState) collectWritten(body *ast.BlockStmt) {
	note := func(e ast.Expr) {
		id := rootIdent(e)
		if id == nil {
			return
		}
		obj := st.pass.Info.Uses[id]
		if obj == nil {
			obj = st.pass.Info.Defs[id]
		}
		if obj == nil || declaredWithin(obj, st.loop) {
			return
		}
		st.written[obj] = true
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				note(l)
			}
		case *ast.IncDecStmt:
			note(n.X)
		case *ast.CallExpr:
			if id := identOf(n.Fun); id != nil {
				if b, ok := st.pass.Info.Uses[id].(*types.Builtin); ok && b.Name() == "delete" && len(n.Args) == 2 {
					note(n.Args[0])
				}
			}
		}
		return true
	})
}

func (st *bodyState) stmtOK(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.AssignStmt:
		return st.assignOK(s)
	case *ast.IncDecStmt:
		// ++/-- is += 1 / -= 1: exactly commutative on integers, so the
		// same shapes as the compound-assign rule below are accepted.
		if !isExactScalar(st.pass.TypeOf(s.X)) {
			return false
		}
		if x, ok := s.X.(*ast.IndexExpr); ok {
			return st.exprOKIgnoringWritten(x.Index) && rootIdent(x.X) != nil
		}
		return identOf(s.X) != nil
	case *ast.ExprStmt:
		// delete(m, key) commutes: distinct iterations delete distinct
		// keys. Deleting by anything else (the range value, a derived
		// expression) may collide with another iteration's write.
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id := identOf(call.Fun); id != nil {
				if b, ok := st.pass.Info.Uses[id].(*types.Builtin); ok && b.Name() == "delete" && len(call.Args) == 2 {
					return st.isKeyIdent(call.Args[1])
				}
			}
		}
		return false
	case *ast.IfStmt:
		if s.Init != nil && !st.stmtOK(s.Init) {
			return false
		}
		if !st.exprOK(s.Cond) {
			return false
		}
		if !st.blockOK(s.Body) {
			return false
		}
		if s.Else != nil {
			if blk, ok := s.Else.(*ast.BlockStmt); ok {
				return st.blockOK(blk)
			}
			if elif, ok := s.Else.(*ast.IfStmt); ok {
				return st.stmtOK(elif)
			}
			return false
		}
		return true
	case *ast.BlockStmt:
		return st.blockOK(s)
	case *ast.BranchStmt:
		return s.Tok == token.CONTINUE && s.Label == nil
	case *ast.EmptyStmt:
		return true
	}
	return false
}

func (st *bodyState) blockOK(b *ast.BlockStmt) bool {
	for _, s := range b.List {
		if !st.stmtOK(s) {
			return false
		}
	}
	return true
}

// assignOK validates one assignment of the loop body.
func (st *bodyState) assignOK(s *ast.AssignStmt) bool {
	if len(s.Rhs) != 1 {
		return false
	}
	rhs := s.Rhs[0]

	// Multi-value define (comma-ok map reads, v, ok := m[k]): every
	// left-hand side must be a freshly declared local — reusing an outer
	// variable would be an order-visible write.
	if len(s.Lhs) > 1 {
		if s.Tok != token.DEFINE || !st.exprOK(rhs) {
			return false
		}
		for _, l := range s.Lhs {
			id, ok := l.(*ast.Ident)
			if !ok {
				return false
			}
			if id.Name == "_" {
				continue
			}
			obj := st.pass.Info.Defs[id]
			if obj == nil {
				return false
			}
			st.allowed[obj] = true
		}
		return true
	}
	if len(s.Lhs) != 1 {
		return false
	}
	lhs := s.Lhs[0]

	// Collect-then-sort: x = append(x, e...). The appended values arrive
	// in nondeterministic order — the mandatory later sort canonicalizes
	// them.
	if s.Tok == token.ASSIGN {
		if call, ok := rhs.(*ast.CallExpr); ok && isBuiltinAppend(st.pass, call) && len(call.Args) >= 2 && !call.Ellipsis.IsValid() {
			target, ok := renderPath(lhs)
			if !ok {
				return false
			}
			arg0, ok := renderPath(call.Args[0])
			if !ok || target != arg0 {
				return false
			}
			for _, arg := range call.Args[1:] {
				if !st.exprOKIgnoringWritten(arg) {
					return false
				}
			}
			st.collected = append(st.collected, target)
			return true
		}
	}

	switch s.Tok {
	case token.DEFINE:
		// v2 := f(k): a call-free local derived from iteration state
		// extends the allowed set.
		if !st.exprOK(rhs) {
			return false
		}
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return false
		}
		if obj := st.pass.Info.Defs[id]; obj != nil {
			st.allowed[obj] = true
		}
		return true
	case token.ASSIGN:
		switch l := lhs.(type) {
		case *ast.IndexExpr:
			// out[key] = rhs: distinct iterations write distinct entries
			// only when the index is exactly the iteration key (any
			// derived expression — including the range value — may
			// collide across iterations). The container itself is
			// exempt from the written-variable check — it is the store
			// target; reads of it anywhere else in the body are still
			// rejected.
			return st.isKeyIdent(l.Index) && st.exprOKIgnoringWritten(l.X) && st.exprOK(rhs)
		case *ast.Ident:
			// x = <constant>: last-writer-wins with the same bits every
			// iteration.
			return isConstant(st.pass, rhs)
		}
		return false
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		// Exact commutative scalar accumulation (integers and booleans;
		// never floats: float addition is not bitwise-commutative across
		// orders). Colliding indices are fine — the operation commutes.
		if !isExactScalar(st.pass.TypeOf(lhs)) || !st.exprOK(rhs) {
			return false
		}
		switch l := lhs.(type) {
		case *ast.IndexExpr:
			return st.exprOKIgnoringWritten(l.Index) && rootIdent(l.X) != nil
		case *ast.Ident:
			return true
		}
		return false
	}
	return false
}

// isKeyIdent reports whether e is (modulo parens) exactly an iteration
// key variable — the one value guaranteed distinct per iteration.
func (st *bodyState) isKeyIdent(e ast.Expr) bool {
	id := identOf(e)
	if id == nil {
		return false
	}
	obj := st.pass.Info.Uses[id]
	if obj == nil {
		obj = st.pass.Info.Defs[id]
	}
	return obj != nil && st.keys[obj]
}

// exprOK accepts side-effect-free expressions that read no state the
// loop body writes: no calls (conversions and len/cap/min/max are fine)
// and no identifier resolving to a written variable.
func (st *bodyState) exprOK(e ast.Expr) bool {
	return st.exprOKWith(e, true)
}

// exprOKIgnoringWritten is exprOK minus the written-variable check, for
// positions where reading body-written state is harmless: the operand
// of an exactly-commutative update and the values fed to a
// collect-then-sort append (the sort erases the order).
func (st *bodyState) exprOKIgnoringWritten(e ast.Expr) bool {
	return st.exprOKWith(e, false)
}

func (st *bodyState) exprOKWith(e ast.Expr, checkWritten bool) bool {
	if e == nil {
		return false
	}
	ok := true
	ast.Inspect(e, func(n ast.Node) bool {
		if !ok {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if tv, isT := st.pass.Info.Types[n.Fun]; isT && tv.IsType() {
				return true // conversion
			}
			if id := identOf(n.Fun); id != nil {
				if b, isB := st.pass.Info.Uses[id].(*types.Builtin); isB {
					switch b.Name() {
					case "len", "cap", "min", "max":
						return true
					}
				}
			}
			ok = false
			return false
		case *ast.FuncLit:
			ok = false
			return false
		case *ast.Ident:
			if checkWritten {
				if obj := st.pass.Info.Uses[n]; obj != nil && st.written[obj] {
					ok = false
					return false
				}
			}
		}
		return true
	})
	return ok
}

// renderPath renders an ident/selector chain (x, x.f, x.f.g) to a
// canonical string, reporting false for any other shape.
func renderPath(e ast.Expr) (string, bool) {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name, true
	case *ast.ParenExpr:
		return renderPath(x.X)
	case *ast.SelectorExpr:
		base, ok := renderPath(x.X)
		if !ok {
			return "", false
		}
		return base + "." + x.Sel.Name, true
	}
	return "", false
}

// sortedLater reports whether the collected path (a slice receiving map
// keys) is passed to a sort.* or slices.* call after the loop in the
// same function.
func sortedLater(pass *Pass, body ast.Node, loop *ast.RangeStmt, path string) bool {
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= loop.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgID, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pn, ok := pass.Info.Uses[pkgID].(*types.PkgName)
		if !ok {
			return true
		}
		if p := pn.Imported().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			matches := false
			ast.Inspect(arg, func(m ast.Node) bool {
				if me, isE := m.(ast.Expr); isE {
					if r, okR := renderPath(me); okR && r == path {
						matches = true
						return false
					}
				}
				return true
			})
			if matches {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func isBuiltinAppend(pass *Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	b, ok := pass.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

func isConstant(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	return ok && tv.Value != nil
}

// isExactScalar reports whether t is a type whose += and bitwise
// accumulation commute exactly: integers and booleans, never floats or
// complex (rounding makes their accumulation order-visible) and never
// strings (+= concatenation is order-visible).
func isExactScalar(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return b.Info()&(types.IsInteger|types.IsBoolean) != 0
}

func identOf(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return exprString(x.X) + "[...]"
	case *ast.CallExpr:
		return exprString(x.Fun) + "(...)"
	case *ast.ParenExpr:
		return exprString(x.X)
	}
	return "expression"
}
