package analyzers

import (
	"go/ast"
	"go/types"
	"regexp"
)

// A RefPurityRule declares, for one package, which functions are
// retained reference implementations (Root) and which functions they
// must never call (Forbidden) — the optimized paths they exist to
// validate. Function identities are matched as "Name" for package-level
// functions and "Recv.Name" for methods (pointer receivers stripped);
// calls into another package match as "pkgname.Name".
type RefPurityRule struct {
	PkgPath   string
	Root      *regexp.Regexp
	Forbidden *regexp.Regexp
}

// DefaultRefPurityRules pin the repo's reference/optimized pairs:
//
//   - dist.ConvolveAllExact (the no-sharing, no-in-tree-coarsening
//     reduction) must not call the monoid-optimized ConvolveAllWith,
//     ConvolveAllCancelWith or their executor convolveAllOpt;
//   - lp's dense reference loops (referenceIterate, referencePivot)
//     must not call the sparse iterate/pivot, the tableau compaction or
//     its dirty-row bookkeeping;
//   - absint's map-based reference fixpoint (classifySetIntoReference,
//     fixpoint, inState, classify and the setState/youngerSet domain)
//     must not call the compact array/bitset path: every name ending in
//     Compact (the per-set entry classifySetIntoCompact, its fixpoint
//     scratch scratchCompact, the threshold classifier classifyCompact)
//     and the cstate methods;
//   - ipet.NewReferenceSystem must not build the optimized NewSystem;
//   - core.Analyze, the one-shot oracle the Engine is tested against,
//     may share the query validation and the distribution stage but
//     must not reach the Engine's memo and splice layer: NewEngine,
//     AnalyzeAll (which builds an engine), the memo protocol (get,
//     getOnce, valueOf) and every Engine method;
//   - ipet.ExhaustiveMax, the path enumeration the IPET ILP is checked
//     against, must not build or solve an IPET system: NewSystem,
//     NewReferenceSystem, every System method and anything in lp;
//   - sim.ValidateAdversarial, which checks per-map bounds against the
//     concrete cache simulator, must not call into the analysis it
//     checks: core, ipet or absint;
//   - dist.Dist.DominatedBy, the CCDF comparison the reductions are
//     checked with, must not convolve or coarsen.
//
// The differential suites compare the two sides for byte-identity; a
// reference that secretly calls the code under test would make that
// comparison vacuous, which is why this is a lint and not a test.
var DefaultRefPurityRules = []RefPurityRule{
	{
		PkgPath:   "repro/internal/dist",
		Root:      regexp.MustCompile(`^ConvolveAllExact$`),
		Forbidden: regexp.MustCompile(`^(ConvolveAllWith|ConvolveAllCancelWith|convolveAllOpt)$`),
	},
	{
		PkgPath:   "repro/internal/lp",
		Root:      regexp.MustCompile(`^Simplex\.reference(Iterate|Pivot)$`),
		Forbidden: regexp.MustCompile(`^Simplex\.(iterate|pivot|compact|markDirty)$`),
	},
	{
		PkgPath:   "repro/internal/absint",
		Root:      regexp.MustCompile(`^Analyzer\.(classifySetIntoReference|fixpoint|inState)$|^classify$|^(setState|youngerSet)\.`),
		Forbidden: regexp.MustCompile(`Compact|^cstate\.`),
	},
	{
		PkgPath:   "repro/internal/ipet",
		Root:      regexp.MustCompile(`^NewReferenceSystem$`),
		Forbidden: regexp.MustCompile(`^NewSystem$|^lp\.NewSimplex$`),
	},
	{
		PkgPath:   "repro/internal/core",
		Root:      regexp.MustCompile(`^Analyze$`),
		Forbidden: regexp.MustCompile(`^(NewEngine|AnalyzeAll|get|getOnce|valueOf|Engine\..*)$`),
	},
	{
		PkgPath:   "repro/internal/ipet",
		Root:      regexp.MustCompile(`^ExhaustiveMax$`),
		Forbidden: regexp.MustCompile(`^(NewSystem|NewReferenceSystem)$|^System\.|^lp\.`),
	},
	{
		PkgPath:   "repro/internal/sim",
		Root:      regexp.MustCompile(`^ValidateAdversarial$`),
		Forbidden: regexp.MustCompile(`^(core|ipet|absint)\.`),
	},
	{
		PkgPath:   "repro/internal/dist",
		Root:      regexp.MustCompile(`^Dist\.DominatedBy$`),
		Forbidden: regexp.MustCompile(`(?i)convolve|coarsen`),
	},
}

// RefPurity returns the refpurity analyzer over the given rules. For
// every function whose identity matches a rule's Root in that rule's
// package, each direct call whose callee identity matches Forbidden is
// reported. Matching is on direct calls by design: the repo's
// reference/optimized split dispatches through runtime flags in shared
// constructors (newSimplex, newAnalyzer), which transitive reachability
// would falsely flag.
func RefPurity(rules []RefPurityRule) *Analyzer {
	a := &Analyzer{
		Name: "refpurity",
		Doc:  "reference implementations must not call the optimized paths they validate",
	}
	a.Run = func(pass *Pass) error {
		var mine []RefPurityRule
		for _, r := range rules {
			if r.PkgPath == pass.Pkg.Path() {
				mine = append(mine, r)
			}
		}
		if len(mine) == 0 {
			return nil
		}
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				id := funcIdentity(pass, fd)
				for _, rule := range mine {
					if !rule.Root.MatchString(id) {
						continue
					}
					checkPurity(pass, fd, id, rule)
				}
			}
		}
		return nil
	}
	return a
}

func checkPurity(pass *Pass, fd *ast.FuncDecl, id string, rule RefPurityRule) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeIdentity(pass, call)
		if callee != "" && rule.Forbidden.MatchString(callee) {
			pass.Reportf(call.Pos(),
				"reference implementation %s calls optimized path %s; the reference exists to validate that code and must stay independent of it",
				id, callee)
		}
		return true
	})
}

// funcIdentity renders a declared function as "Name" or "Recv.Name".
func funcIdentity(pass *Pass, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := pass.TypeOf(fd.Recv.List[0].Type)
	return recvName(t) + "." + fd.Name.Name
}

// calleeIdentity resolves a call expression to a matchable identity:
// "Name" or "Recv.Name" for same-package targets, "pkgname.Name" for
// cross-package ones, "" for calls that cannot be resolved statically
// (function values, interface methods).
func calleeIdentity(pass *Pass, call *ast.CallExpr) string {
	fun := call.Fun
	// An explicitly instantiated generic call, f[T](...), calls f.
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ix.X
	case *ast.IndexListExpr:
		fun = ix.X
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		if fn, ok := pass.Info.Uses[fun].(*types.Func); ok {
			return typesFuncIdentity(pass, fn)
		}
	case *ast.SelectorExpr:
		if sel, ok := pass.Info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return typesFuncIdentity(pass, fn)
			}
			return ""
		}
		// Qualified identifier: pkg.Func.
		if fn, ok := pass.Info.Uses[fun.Sel].(*types.Func); ok {
			return typesFuncIdentity(pass, fn)
		}
	}
	return ""
}

func typesFuncIdentity(pass *Pass, fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	name := fn.Name()
	if ok && sig.Recv() != nil {
		name = recvName(sig.Recv().Type()) + "." + name
	}
	if fn.Pkg() != nil && fn.Pkg() != pass.Pkg {
		return fn.Pkg().Name() + "." + name
	}
	return name
}

func recvName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}
