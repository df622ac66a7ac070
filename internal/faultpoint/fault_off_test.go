//go:build !pwcetfault

package faultpoint

import "testing"

// Without the pwcetfault build tag the whole framework must compile to
// inert no-ops: production binaries carry the call sites but can never
// be armed.
func TestDisabledBuildIsInert(t *testing.T) {
	if Enabled {
		t.Fatal("Enabled must be false without the pwcetfault build tag")
	}
	if err := Hit(SiteAnalyze); err != nil {
		t.Fatalf("Hit = %v, want nil", err)
	}
	if Fires(SiteForceEvict) {
		t.Fatal("Fires reported true in a disabled build")
	}
	if err := EnableSpecs("core.analyze=error"); err == nil {
		t.Fatal("EnableSpecs must refuse to arm a disabled build")
	}
	// The empty spec list is the unarmed default (pwcetd -fault "") and
	// must stay accepted so plain deployments do not need the tag.
	if err := EnableSpecs(""); err != nil {
		t.Fatalf("EnableSpecs(\"\") = %v, want nil", err)
	}
	if len(Sites()) == 0 {
		t.Fatal("site catalog empty in disabled build")
	}
}
