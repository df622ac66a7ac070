//go:build !pwcetfault

package faultpoint

import "errors"

// Enabled gates the fault-injection registry. This is the default
// build: every probe below is an inlinable no-op, so instrumented hot
// paths pay nothing, and arming a site is an error rather than a
// silent no-op.
const Enabled = false

// Hit reports the injected action for the site: always nil here.
func Hit(site string) error { return nil }

// Fires reports whether the site's control-flow toggle fired: never.
func Fires(site string) bool { return false }

// EnableSpecs arms several sites from "site=spec;site=spec" form.
// Without the pwcetfault build tag it reports an error for any site, so
// callers (cmd/pwcetd -fault, cmd/soak) fail loudly instead of running
// an unarmed chaos scenario; the empty list arms nothing.
func EnableSpecs(specs string) error {
	if specs == "" {
		return nil
	}
	return errNotBuilt
}

var errNotBuilt = errors.New("faultpoint: fault injection requires the pwcetfault build tag")
