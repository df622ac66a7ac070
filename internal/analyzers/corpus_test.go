package analyzers

import (
	"regexp"
	"testing"
)

func TestMapIterDetCorpus(t *testing.T) {
	runCorpus(t, "mapiterdet", "example.com/mapiterdet",
		[]*Analyzer{MapIterDet([]string{"example.com/mapiterdet"})})
}

// TestMapIterDetIgnoresNonCriticalPackages: the same corpus loaded under
// a path outside the critical set must produce no findings at all — but
// its directives then count as unused, which is exactly the hygiene
// signal for a package dropped from the critical list.
func TestMapIterDetIgnoresNonCriticalPackages(t *testing.T) {
	pkg, err := loadTestdata("testdata/src/mapiterdet", "example.com/elsewhere")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run([]*Package{pkg}, []*Analyzer{MapIterDet([]string{"example.com/mapiterdet"})})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if d.Analyzer == "mapiterdet" {
			t.Errorf("finding in non-critical package: %s", d)
		}
	}
	unused := 0
	for _, d := range diags {
		if d.Analyzer == "pwcetlint" {
			unused++
		}
	}
	if unused == 0 {
		t.Error("expected the corpus directive to be reported unused when the package is not critical")
	}
}

func TestFloatAccumCorpus(t *testing.T) {
	runCorpus(t, "floataccum", "example.com/floataccum",
		[]*Analyzer{FloatAccum()})
}

func TestExhaustEnumCorpus(t *testing.T) {
	runCorpus(t, "exhaustenum", "example.com/exhaustenum",
		[]*Analyzer{ExhaustEnum("example.com")})
}

// TestExhaustEnumForeignModule: the same corpus analyzed with a module
// prefix that does not own the enum's package must stay silent — the
// analyzer only polices enums this module defines.
func TestExhaustEnumForeignModule(t *testing.T) {
	pkg, err := loadTestdata("testdata/src/exhaustenum", "example.com/exhaustenum")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run([]*Package{pkg}, []*Analyzer{ExhaustEnum("other.org")})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if d.Analyzer == "exhaustenum" {
			t.Errorf("finding on foreign-module enum: %s", d)
		}
	}
}

func TestRefPurityCorpus(t *testing.T) {
	runCorpus(t, "refpurity", "example.com/refpurity",
		[]*Analyzer{RefPurity([]RefPurityRule{{
			PkgPath:   "example.com/refpurity",
			Root:      regexp.MustCompile(`^Reference|\.Reference`),
			Forbidden: regexp.MustCompile(`^Fast(Sum|Pick)$|^Engine\.fastRun$`),
		}})})
}

func TestDirectiveHygieneCorpus(t *testing.T) {
	runCorpus(t, "directives", "example.com/directives",
		[]*Analyzer{MapIterDet([]string{"example.com/directives"})})
}
