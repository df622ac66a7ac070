package analyzers

// The corpus harness mirrors golang.org/x/tools/go/analysis/analysistest:
// each directory under testdata/src is one package of golden Go files,
// and every expected diagnostic is declared in-source with a comment
//
//	// want `regexp`
//
// (double-quoted strings work too; several patterns may follow one
// want). A want matches a diagnostic on its own line whose message
// matches the pattern. The harness fails on both sides of a mismatch:
// an unmatched want AND an undeclared diagnostic — so the negative
// (false-positive-shaped) cases in the corpora are enforced, not just
// the positives.

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// loadTestdata type-checks a single directory of Go files as package
// `path` — the analyzer test corpora under testdata/src. Imports are
// resolved like Load's, via export data listed from the enclosing
// module (the testdata packages import at most the standard library).
func loadTestdata(dir, path string) (*Package, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	if len(matches) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	sort.Strings(matches)
	fset := token.NewFileSet()
	var files []*ast.File
	importSet := map[string]bool{}
	for _, m := range matches {
		f, err := parser.ParseFile(fset, m, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		for _, spec := range f.Imports {
			importSet[spec.Path.Value[1:len(spec.Path.Value)-1]] = true
		}
	}
	args := []string{"list", "-e", "-export", "-deps", listFields}
	for p := range importSet {
		args = append(args, p)
	}
	sort.Strings(args[5:]) // deterministic go list invocation
	exports := make(map[string]string)
	if len(importSet) > 0 {
		deps, err := goList(dir, args...)
		if err != nil {
			return nil, err
		}
		for _, p := range deps {
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
	}
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
	info := newInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", path, err)
	}
	return &Package{Path: path, Name: tpkg.Name(), Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

type wantExpectation struct {
	file string // base name
	line int
	re   *regexp.Regexp
	raw  string
	hit  bool
}

// runCorpus loads testdata/src/<dir> as package pkgPath, runs the given
// analyzers through the full driver (directive resolution included) and
// checks the diagnostics against the corpus's want comments.
func runCorpus(t *testing.T, dir, pkgPath string, analyzers []*Analyzer) {
	t.Helper()
	pkg, err := loadTestdata(filepath.Join("testdata", "src", dir), pkgPath)
	if err != nil {
		t.Fatalf("load corpus %s: %v", dir, err)
	}
	diags, err := Run([]*Package{pkg}, analyzers)
	if err != nil {
		t.Fatalf("run on corpus %s: %v", dir, err)
	}
	wants := collectWants(t, pkg)
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.hit || w.file != filepath.Base(d.Position.Filename) || w.line != d.Position.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("undeclared diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no diagnostic matched want %s", w.file, w.line, w.raw)
		}
	}
}

// collectWants extracts the want expectations from every comment of the
// corpus package. Both line and block comments are scanned, so a want
// can share a line with a //pwcetlint: directive via /* want ... */.
func collectWants(t *testing.T, pkg *Package) []*wantExpectation {
	t.Helper()
	var wants []*wantExpectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				switch {
				case strings.HasPrefix(text, "//"):
					text = text[2:]
				case strings.HasPrefix(text, "/*"):
					text = strings.TrimSuffix(text[2:], "*/")
				}
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				patterns, err := parseWantPatterns(strings.TrimPrefix(text, "want "))
				if err != nil {
					t.Fatalf("%s:%d: bad want comment: %v", pos.Filename, pos.Line, err)
				}
				for _, p := range patterns {
					re, err := regexp.Compile(p)
					if err != nil {
						t.Fatalf("%s:%d: want pattern %q: %v", pos.Filename, pos.Line, p, err)
					}
					wants = append(wants, &wantExpectation{
						file: filepath.Base(pos.Filename),
						line: pos.Line,
						re:   re,
						raw:  p,
					})
				}
			}
		}
	}
	return wants
}

// parseWantPatterns splits a want payload into its quoted patterns:
// a sequence of backquoted or double-quoted Go strings.
func parseWantPatterns(s string) ([]string, error) {
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		switch s[0] {
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				return nil, fmt.Errorf("unterminated backquoted pattern in %q", s)
			}
			out = append(out, s[1:1+end])
			s = strings.TrimSpace(s[end+2:])
		case '"':
			end := strings.IndexByte(s[1:], '"')
			if end < 0 {
				return nil, fmt.Errorf("unterminated quoted pattern in %q", s)
			}
			p, err := strconv.Unquote(s[:end+2])
			if err != nil {
				return nil, err
			}
			out = append(out, p)
			s = strings.TrimSpace(s[end+2:])
		default:
			return nil, fmt.Errorf("want patterns must be quoted, got %q", s)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("want comment without patterns")
	}
	return out, nil
}
