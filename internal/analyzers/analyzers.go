// Package analyzers implements pwcetlint, the repo's static-analysis
// suite for the determinism and soundness invariants the pWCET
// pipeline depends on. The core contract of this codebase — byte-
// identical results for every worker count, coarsening strategy and
// fast-vs-reference path — is trivially broken by an unsorted map
// iteration or an order-dependent floating-point accumulation, and the
// differential tests only catch such a break when a particular run
// happens to expose it. The analyzers here enforce the discipline
// statically, at CI time:
//
//   - mapiterdet flags `range` over a map in the determinism-critical
//     packages unless the loop body is provably order-insensitive or
//     the site carries a reviewed //pwcetlint:ordered directive.
//   - floataccum flags floating-point compound accumulation whose
//     evaluation order derives from a map iteration or from a shared
//     accumulator written inside `go` function literals (a shared
//     float accumulator would make results depend on scheduling).
//   - exhaustenum requires switches over the repo's int enums
//     (iota blocks such as cache.Mechanism, lp.Op, dist.CoarsenStrategy)
//     to be exhaustive or to carry a panicking default.
//   - refpurity keeps the retained reference implementations
//     (lp.NewReferenceSimplex's dense loops, absint's map-based domain,
//     dist.ConvolveAllExact) and the oracles (core.Analyze,
//     ipet.ExhaustiveMax, sim.ValidateAdversarial, Dist.DominatedBy)
//     from calling into the optimized paths they exist to validate.
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic, a `// want`-comment test harness) so a
// future migration to the real multichecker is mechanical; it is
// implemented on the standard library alone because this module has no
// external dependencies.
//
// # Suppression directives
//
// A finding is suppressed by a directive comment on the flagged line or
// on the line immediately above it:
//
//	//pwcetlint:NAME justification
//
// where NAME is an analyzer name (mapiterdet, floataccum, exhaustenum,
// refpurity) or the alias "ordered", which covers both order-sensitive
// analyzers (mapiterdet and floataccum). The justification text is
// mandatory: a bare directive is itself reported. Directives that
// suppress nothing are reported as unused, so stale annotations cannot
// accumulate. See the README section "Static analysis & invariants".
package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one static check. The shape mirrors
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //pwcetlint:NAME suppression directives.
	Name string
	// Doc is the one-paragraph description shown by `pwcetlint -help`.
	Doc string
	// Run applies the analyzer to one package, reporting findings via
	// pass.Report.
	Run func(pass *Pass) error
}

// A Pass provides one analyzer run with the syntax, type information
// and reporting sink for a single package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Position: p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of expression e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// A Diagnostic is one reported finding.
type Diagnostic struct {
	Analyzer string
	Position token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s",
		d.Position.Filename, d.Position.Line, d.Position.Column, d.Analyzer, d.Message)
}

// Run applies every analyzer to every package, resolves suppression
// directives, and returns the surviving diagnostics sorted by position.
// Directive hygiene is enforced here: a directive with no justification
// and a directive that suppressed nothing are both reported (under the
// pseudo-analyzer name "pwcetlint"), so the reviewed-annotation corpus
// stays honest — deleting the code a directive covers makes the
// directive itself fail the lint.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var raw []Diagnostic
	var dirs []*directive
	for _, pkg := range pkgs {
		dirs = append(dirs, collectDirectives(pkg.Fset, pkg.Files)...)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				diags:    &raw,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	kept := applyDirectives(raw, dirs)
	for _, d := range dirs {
		switch {
		case !d.known:
			kept = append(kept, Diagnostic{
				Analyzer: "pwcetlint",
				Position: d.pos,
				Message:  fmt.Sprintf("unknown directive //pwcetlint:%s (valid names: ordered, mapiterdet, floataccum, exhaustenum, refpurity)", d.name),
			})
		case d.justification == "":
			kept = append(kept, Diagnostic{
				Analyzer: "pwcetlint",
				Position: d.pos,
				Message:  fmt.Sprintf("//pwcetlint:%s directive needs a one-line justification", d.name),
			})
		case !d.used:
			kept = append(kept, Diagnostic{
				Analyzer: "pwcetlint",
				Position: d.pos,
				Message:  fmt.Sprintf("unused suppression directive //pwcetlint:%s (no %s finding on this or the next line)", d.name, d.covers()),
			})
		}
	}
	SortDiagnostics(kept)
	return kept, nil
}

// SortDiagnostics orders diagnostics by file, line, column, analyzer,
// message — the deterministic output order of the multichecker.
func SortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}
