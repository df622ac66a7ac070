package analyzers

import (
	"go/ast"
	"go/types"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestRepoCleanAndDirectivesLoadBearing is the in-process version of the
// CI lint gate, plus the guarantee the directive corpus stays honest:
//
//  1. the production suite over the whole module reports nothing, and
//  2. removing ANY single //pwcetlint: directive makes the suite report
//     again — every suppression in the tree covers a live finding, so a
//     reviewer can trust that each justification was written against
//     real code, not left behind by refactoring.
//
// (2) is checked by blanking one directive comment at a time in the
// loaded syntax trees and re-running the suite on the affected package.
func TestRepoCleanAndDirectivesLoadBearing(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	assertRefPurityRulesLive(t, pkgs)
	diags, err := Run(pkgs, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("repo not lint-clean: %s", d)
	}
	if t.Failed() {
		return
	}

	checked := 0
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, directivePrefix) {
						continue
					}
					orig := c.Text
					c.Text = "// directive blanked by TestRepoCleanAndDirectivesLoadBearing"
					after, err := Run([]*Package{pkg}, All())
					c.Text = orig
					if err != nil {
						t.Fatal(err)
					}
					if len(after) == 0 {
						t.Errorf("%s: removing directive %q surfaces no finding; the suppression is stale",
							pkg.Fset.Position(c.Pos()), orig)
					}
					checked++
				}
			}
		}
	}
	if checked == 0 {
		t.Error("no //pwcetlint: directives found in the module; expected the reviewed absint annotations")
	}
}

// assertRefPurityRulesLive fails unless every production refpurity rule
// still names live code: its Root matches at least one function or
// method declared in the rule's package, and its Forbidden pattern at
// least one the package declares or imports (rendered "pkgname.Name"
// or "pkgname.Recv.Name", as calls into another package are). A rename
// that left a rule matching nothing would turn the lint vacuous without
// any finding to notice it by.
func assertRefPurityRulesLive(t *testing.T, pkgs []*Package) {
	t.Helper()
	for _, rule := range DefaultRefPurityRules {
		var ids, imported []string
		for _, pkg := range pkgs {
			if pkg.Path != rule.PkgPath {
				continue
			}
			pass := &Pass{Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Types, Info: pkg.Info}
			for _, f := range pkg.Files {
				for _, decl := range f.Decls {
					if fd, ok := decl.(*ast.FuncDecl); ok {
						ids = append(ids, funcIdentity(pass, fd))
					}
				}
			}
			for _, imp := range pkg.Types.Imports() {
				for _, name := range imp.Scope().Names() {
					switch obj := imp.Scope().Lookup(name).(type) {
					case *types.Func:
						imported = append(imported, typesFuncIdentity(pass, obj))
					case *types.TypeName:
						if named, ok := obj.Type().(*types.Named); ok {
							for i := range named.NumMethods() {
								imported = append(imported, typesFuncIdentity(pass, named.Method(i)))
							}
						}
					}
				}
			}
		}
		for _, pat := range []struct {
			field string
			re    *regexp.Regexp
			ids   []string
		}{{"Root", rule.Root, ids}, {"Forbidden", rule.Forbidden, append(ids, imported...)}} {
			if !slices.ContainsFunc(pat.ids, pat.re.MatchString) {
				t.Errorf("refpurity rule for %s: %s %s matches no function or method the package declares or imports; the rule guards nothing",
					rule.PkgPath, pat.field, pat.re)
			}
		}
	}
}
