package analyzers

import (
	"bufio"
	"bytes"
	"go/ast"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// Reasons a library function may stay although no binary links it.
const (
	// surfaceVariant: compiled in only by -tags pwcetcheck or
	// pwcetfault, or reached only behind those tags' constant-false
	// guards, so the default build never links it.
	surfaceVariant = "variant"
	// surfaceOracle: a reference the tests check the analysis against.
	// It counts as evidence only while it stays independent of the code
	// it checks, so no binary may link it, and a refpurity rule keeps it
	// from calling that code.
	surfaceOracle = "oracle"
)

// surfaceAllowed lists every function of the module's library packages
// that may stay although none of its binaries links it, keyed as
// "import/path.Name" or "import/path.Recv.Name".
var surfaceAllowed = map[string]string{
	"repro/internal/dist.Dist.check":                surfaceVariant,
	"repro/internal/dist.checkAtoms":                surfaceVariant,
	"repro/internal/dist.scratch.checkZero":         surfaceVariant,
	"repro/internal/lp.Simplex.check":               surfaceVariant,
	"repro/internal/faultpoint.Hit":                 surfaceVariant,
	"repro/internal/faultpoint.Fires":               surfaceVariant,
	"repro/internal/faultpoint.Sites":               surfaceVariant,
	"repro/internal/faultpoint.InjectedError.Error": surfaceVariant,

	"repro/internal/core.Analyze":            surfaceOracle,
	"repro/internal/ipet.ExhaustiveMax":      surfaceOracle,
	"repro/internal/sim.ValidateAdversarial": surfaceOracle,
	"repro/internal/dist.Dist.DominatedBy":   surfaceOracle,
}

// TestLinkedSurface is the linker gate: every function or method in a
// default-build, non-test file of the module's library packages is
// linked into one of its binaries (the mains under cmd/ and examples/,
// plus the cmd/pwcetbench module), or is on surfaceAllowed with one of
// its two reasons. A function that only tests reach is to be deleted
// with those tests. An allow-listed function that a binary now links,
// or that is gone, fails the gate too, so an oracle cannot drift into a
// production path unnoticed.
//
// The binaries are built with inlining off, so that a function whose
// every call was inlined still has a symbol.
func TestLinkedSurface(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every binary of the module")
	}
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	linked := linkedFunctions(t)

	declared := map[string]bool{}
	for _, pkg := range pkgs {
		if pkg.Name == "main" {
			continue
		}
		pass := &Pass{Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Types, Info: pkg.Info}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || (fd.Recv == nil && fd.Name.Name == "init") {
					continue
				}
				id := pkg.Path + "." + funcIdentity(pass, fd)
				declared[id] = true
				reason, allowed := surfaceAllowed[id]
				switch {
				case !linked[id] && !allowed:
					t.Errorf("%s: %s is linked into no binary; delete it with the tests that only it serves",
						pkg.Fset.Position(fd.Pos()), id)
				case linked[id] && allowed:
					t.Errorf("%s: %s is allow-listed (%s) but a binary links it; remove its entry",
						pkg.Fset.Position(fd.Pos()), id, reason)
				}
			}
		}
	}
	for _, id := range slices.Sorted(maps.Keys(surfaceAllowed)) {
		if reason := surfaceAllowed[id]; reason != surfaceVariant && reason != surfaceOracle {
			t.Errorf("allow-list entry %s gives reason %q; only %q and %q are allowed",
				id, reason, surfaceVariant, surfaceOracle)
		}
		if !declared[id] {
			t.Errorf("allow-list entry %s names no function of a default-build library file; remove it", id)
		}
	}
}

// linkedFunctions builds every binary of the module into a temporary
// directory and returns the identities (as linkedName renders them) of
// the functions they link.
func linkedFunctions(t *testing.T) map[string]bool {
	t.Helper()
	bin := t.TempDir() + string(filepath.Separator)
	goTool(t, "build", "-gcflags=all=-l", "-o", bin, "./cmd/...", "./examples/...")
	goTool(t, "-C", "cmd/pwcetbench", "build", "-gcflags=all=-l", "-o", bin, ".")
	entries, err := os.ReadDir(bin)
	if err != nil {
		t.Fatal(err)
	}
	linked := map[string]bool{}
	for _, e := range entries {
		sc := bufio.NewScanner(bytes.NewReader(goTool(t, "tool", "nm", filepath.Join(bin, e.Name()))))
		for sc.Scan() {
			if name, ok := linkedName(sc.Text()); ok {
				linked[name] = true
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	return linked
}

// goTool runs the go command at the module root and returns its stdout.
func goTool(t *testing.T, args ...string) []byte {
	t.Helper()
	cmd := exec.Command("go", args...)
	cmd.Dir = "../.."
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return out
}

var (
	// nmText matches a `go tool nm` line of a text symbol. The name is
	// everything after the type letter: a generic shape such as
	// go.shape.struct { X int } holds spaces.
	nmText = regexp.MustCompile(`^ *[0-9a-f]+ [Tt] (.+)$`)
	// closureSuffix matches what the compiler appends to the function a
	// closure, deferred or go'd call, method value or range-over-func
	// body belongs to.
	closureSuffix = regexp.MustCompile(`(\.(func|deferwrap|gowrap)[0-9]+|\.[0-9]+|-fm|-range[0-9]+)+$`)
)

// linkedName renders the function behind one `go tool nm` line as
// "import/path.Name" or "import/path.Recv.Name", the identity the gate
// gives a declaration. It drops generic instantiations, a pointer
// receiver's "(*…)" and closure suffixes. ok is false for a line that
// is not a text symbol.
func linkedName(line string) (name string, ok bool) {
	m := nmText.FindStringSubmatch(line)
	if m == nil {
		return "", false
	}
	var b strings.Builder
	depth := 0
	for _, r := range m[1] {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	name = strings.NewReplacer("(*", "", ")", "").Replace(b.String())
	return closureSuffix.ReplaceAllString(name, ""), true
}

// TestLinkedName pins linkedName on the symbol shapes the module's
// binaries contain.
func TestLinkedName(t *testing.T) {
	for _, tc := range []struct {
		line, want string
	}{
		// A generic method on a pointer receiver.
		{"  655620 T repro/internal/core.(*memoCell[go.shape.[][]int64]).compute",
			"repro/internal/core.memoCell.compute"},
		{"  655720 T repro/internal/core.(*memoCell[go.shape.[][]int64]).compute.func1",
			"repro/internal/core.memoCell.compute"},
		// A generic function whose shapes hold spaces.
		{"  657600 T repro/internal/core.get[go.shape.struct { repro/internal/core.cfg repro/internal/cache.Config; repro/internal/core.data bool },go.shape.[]bool]",
			"repro/internal/core.get"},
		// Closures, deferred calls and method values.
		{"  634fa0 T repro/internal/absint.(*setIndex).localOf.func1",
			"repro/internal/absint.setIndex.localOf"},
		{"  6316e0 T repro/internal/absint.(*Analyzer).classifySetIntoCompact.deferwrap1",
			"repro/internal/absint.Analyzer.classifySetIntoCompact"},
		{"  6326c0 T repro/internal/absint.reversePostOrder.func1",
			"repro/internal/absint.reversePostOrder"},
		{"  630760 T repro/internal/absint.init.func1",
			"repro/internal/absint.init"},
		{"  6a6480 T repro/internal/serve.(*Server).handleBatch-fm",
			"repro/internal/serve.Server.handleBatch"},
		// A value method and its pointer wrapper.
		{"  54b160 T repro/internal/core.Artifact.String",
			"repro/internal/core.Artifact.String"},
		{"  555220 T repro/internal/core.(*Artifact).String",
			"repro/internal/core.Artifact.String"},
		// The root package.
		{"  4e82c0 T repro.NewProgram", "repro.NewProgram"},
	} {
		if got, ok := linkedName(tc.line); !ok || got != tc.want {
			t.Errorf("linkedName(%q) = %q, %v; want %q", tc.line, got, ok, tc.want)
		}
	}
	for _, line := range []string{
		"  a44350 D repro/internal/core.ErrPoisoned",
		"  7f1d40 R repro/internal/core..dict.getOnce[repro/internal/core.classKey,[]bool]",
		"         U abort",
	} {
		if got, ok := linkedName(line); ok {
			t.Errorf("linkedName(%q) = %q, true; want no text symbol", line, got)
		}
	}
}
