package sched

import (
	"strings"
	"testing"
)

// FuzzParsePolicy drives the policy-spec parser, the text form of a
// policy on the command line and in schedule artifacts.  It must never
// panic, and every spec it accepts must round-trip: PolicySpec of the
// parsed policy parses back to a policy with the same name and spec
// that picks the same ranks.  Replay specs name a file and are left to
// the schedule loader's tests.
func FuzzParsePolicy(f *testing.F) {
	for _, s := range []string{"lowest", "highest", "rr", "round-robin", "alt", "alternating",
		"lifo", "rand:1", "rand:-42", "rand:+7", "rand:", "rand:x", "bogus", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		if strings.HasPrefix(spec, "replay:") {
			return
		}
		p, err := ParsePolicy(spec)
		if err != nil {
			return
		}
		q, err := ParsePolicy(PolicySpec(p))
		if err != nil {
			t.Fatalf("ParsePolicy(%q) accepted, but its spec %q does not parse: %v", spec, PolicySpec(p), err)
		}
		if q.Name() != p.Name() || PolicySpec(q) != PolicySpec(p) {
			t.Fatalf("%q round-trips to %s/%q, want %s/%q", spec, q.Name(), PolicySpec(q), p.Name(), PolicySpec(p))
		}
		enabled := []int{0, 1, 2}
		for step := 0; step < 16; step++ {
			if a, b := p.Pick(enabled, step), q.Pick(enabled, step); a != b {
				t.Fatalf("%q and its round trip pick %d vs %d at step %d", spec, a, b, step)
			}
		}
	})
}
