package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FloatAccum returns the floataccum analyzer. It flags floating-point
// compound accumulation (+=, -=, *=, /=) whose evaluation order is
// nondeterministic — the bug class the repo's byte-identity contracts
// rule out (dist.ConvolveAllWith returns the same atoms for every
// worker count because each merge node accumulates on one goroutine in
// a fixed order), since float addition is not associative and a
// different accumulation order changes the low bits of the result:
//
//   - an accumulator declared outside a range-over-map loop and updated
//     inside it (iteration order varies run to run), and
//   - an accumulator declared outside a `go func` literal and updated
//     inside it (goroutine interleaving varies run to run — a shared
//     accumulator is a determinism bug on top of a data race).
//
// Accumulators local to the loop body (one partial sum per key, later
// combined in a sorted order) are fine and not flagged. A site that is
// genuinely order-safe — e.g. the loop is only ever entered with one
// element — can carry //pwcetlint:ordered with a justification.
func FloatAccum() *Analyzer {
	a := &Analyzer{
		Name: "floataccum",
		Doc:  "flags float += / *= accumulation whose order derives from map iteration or goroutine interleaving",
	}
	a.Run = func(pass *Pass) error {
		for _, f := range pass.Files {
			// carriers is the stack of enclosing order-nondeterministic
			// regions: map-range loops and go-statement function literals.
			type carrier struct {
				node ast.Node
				kind string
			}
			var carriers []carrier
			var walk func(n ast.Node) bool
			walk = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.RangeStmt:
					if t := pass.TypeOf(n.X); t != nil {
						if _, isMap := t.Underlying().(*types.Map); isMap {
							carriers = append(carriers, carrier{n, "map iteration"})
							ast.Inspect(n.Body, walk)
							carriers = carriers[:len(carriers)-1]
							return false
						}
					}
				case *ast.GoStmt:
					if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
						carriers = append(carriers, carrier{lit, "goroutine interleaving"})
						ast.Inspect(lit.Body, walk)
						carriers = carriers[:len(carriers)-1]
						// The call arguments are evaluated on the spawning
						// goroutine, outside the carrier.
						for _, arg := range n.Call.Args {
							ast.Inspect(arg, walk)
						}
						return false
					}
				case *ast.AssignStmt:
					if len(carriers) == 0 {
						return true
					}
					switch n.Tok {
					case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
					default:
						return true
					}
					lhs := n.Lhs[0]
					if !isFloat(pass.TypeOf(lhs)) {
						return true
					}
					id := rootIdent(lhs)
					if id == nil {
						// Index/selector target: attribute it to the root
						// object when resolvable, otherwise stay silent
						// rather than guess.
						return true
					}
					obj := pass.Info.Uses[id]
					if obj == nil {
						return true
					}
					c := carriers[len(carriers)-1]
					if declaredWithin(obj, c.node) {
						return true // per-iteration (or per-goroutine) partial: order-invariant
					}
					pass.Reportf(n.TokPos,
						"floating-point accumulation into %s: the accumulation order derives from %s and is nondeterministic; accumulate into a local and combine in sorted order, or annotate //pwcetlint:ordered with a justification",
						id.Name, c.kind)
				}
				return true
			}
			ast.Inspect(f, walk)
		}
		return nil
	}
	return a
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// rootIdent returns the base identifier of an assignable expression:
// x, x[i], x.f, (*x) all root at x.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// declaredWithin reports whether obj's declaration lies inside node's
// source range.
func declaredWithin(obj types.Object, node ast.Node) bool {
	return obj.Pos() >= node.Pos() && obj.Pos() < node.End()
}
