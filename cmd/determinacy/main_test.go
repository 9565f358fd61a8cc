package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/explore"
	"repro/internal/fdtd"
	"repro/internal/grid"
)

// TestExploreSmoke drives the tool end to end: every registered
// network meets its expectation (the archetype cores, the tiny FDTD
// instance and the full Table 1 program at P = 8 are determinate
// under every continuation of the cross-check family, the racy demo's
// violation is found automatically, the deadlock demo deadlocks), the divergence minimizes to a short forced-pick prefix, and
// the saved artifact replays to the same divergent final state through
// the -replay path.
func TestExploreSmoke(t *testing.T) {
	var buf bytes.Buffer
	if code := runExplore(&buf, exploreConfig{network: "all", cont: "lowest"}); code != 0 {
		t.Fatalf("runExplore(all) exit %d:\n%s", code, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		"expected violation FOUND", // racy demo divergence found automatically
		"expected deadlock FOUND",  // deadlock demo reported, not certified
		"explore fdtd",             // the application network ran
		// Theorem 1 at full size: the paper's Table 1 program reduces
		// to one schedule under channel dependence, and the
		// interleavings six continuations take reach one final state.
		"explore table1",
		"p=8 mode=channel: 1 schedule(s), 0 sleep-set-blocked, 0 race pair(s) examined, determinate\n" +
			"certified: the explorations under 6 continuations [lowest highest lifo rr alt rand:1] reach one final state",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explore all output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "FAIL") {
		t.Errorf("explore all output contains FAIL:\n%s", out)
	}

	// Minimize the racy divergence and save the artifact.
	path := filepath.Join(t.TempDir(), "div.json")
	buf.Reset()
	code := runExplore(&buf, exploreConfig{
		network: "racy", cont: "lowest", minimize: true, artifactPath: path,
	})
	if code != 0 {
		t.Fatalf("runExplore(racy, minimize) exit %d:\n%s", code, buf.String())
	}
	if !strings.Contains(buf.String(), "minimal diverging schedule") {
		t.Errorf("minimize output missing trace:\n%s", buf.String())
	}

	a, err := explore.LoadArtifact(path)
	if err != nil {
		t.Fatalf("LoadArtifact: %v", err)
	}
	if len(a.Schedule.Picks) > 6 {
		t.Errorf("minimized schedule has %d forced picks, want <= 6", len(a.Schedule.Picks))
	}
	if a.Outcome == a.Reference {
		t.Errorf("artifact outcome %q equals reference", a.Outcome)
	}

	// Replay must reproduce the divergent final state bitwise.
	buf.Reset()
	if code := runReplay(&buf, path); code != 0 {
		t.Fatalf("runReplay exit %d:\n%s", code, buf.String())
	}
	if !strings.Contains(buf.String(), "reproduced: "+a.Outcome) {
		t.Errorf("replay output missing reproduction of %q:\n%s", a.Outcome, buf.String())
	}
}

func TestExploreBoundedTruncates(t *testing.T) {
	// racy finds its divergence on the second schedule, so truncating at
	// two still meets the expectation — exit 0, truncation reported.
	var buf bytes.Buffer
	code := runExplore(&buf, exploreConfig{network: "racy", cont: "lowest", maxSchedules: 2})
	if code != 0 {
		t.Fatalf("bounded explore(racy) exit %d, want 0:\n%s", code, buf.String())
	}
	if !strings.Contains(buf.String(), "truncated") {
		t.Errorf("bounded explore output does not mention truncation:\n%s", buf.String())
	}
	// A determinate network truncated before exhaustion can no longer
	// certify determinacy, so its expectation fails.
	buf.Reset()
	code = runExplore(&buf, exploreConfig{network: "farm", cont: "lowest", modeStr: "full", maxSchedules: 1})
	if code != 1 {
		t.Fatalf("bounded explore(farm) exit %d, want 1:\n%s", code, buf.String())
	}
}

// TestExploreContinueLeadsCrossCheck: -continue names the first
// continuation of a determinate network's cross-check, and the family
// supplies the rest without repeating it.
func TestExploreContinueLeadsCrossCheck(t *testing.T) {
	var buf bytes.Buffer
	if code := runExplore(&buf, exploreConfig{network: "farm", cont: "rr"}); code != 0 {
		t.Fatalf("explore(farm, rr) exit %d:\n%s", code, buf.String())
	}
	if want := "6 continuations [rr lowest highest lifo alt rand:1]"; !strings.Contains(buf.String(), want) {
		t.Errorf("output missing %q:\n%s", want, buf.String())
	}
}

func TestExploreUnknownInputs(t *testing.T) {
	var buf bytes.Buffer
	if code := runExplore(&buf, exploreConfig{network: "nope", cont: "lowest"}); code != 2 {
		t.Errorf("unknown network exit %d, want 2", code)
	}
	buf.Reset()
	if code := runExplore(&buf, exploreConfig{network: "racy", cont: "lowest", modeStr: "bogus"}); code != 2 {
		t.Errorf("unknown mode exit %d, want 2", code)
	}
	buf.Reset()
	if code := runExplore(&buf, exploreConfig{network: "farm", cont: "bogus"}); code != 2 {
		t.Errorf("unknown continuation exit %d, want 2", code)
	}
	buf.Reset()
	if code := runExplore(&buf, exploreConfig{network: "all", cont: "lowest", artifactPath: "x.json"}); code != 2 {
		t.Errorf("artifact with -network all exit %d, want 2", code)
	}
	buf.Reset()
	if code := runReplay(&buf, filepath.Join(t.TempDir(), "missing.json")); code != 2 {
		t.Errorf("missing artifact exit %d, want 2", code)
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"version":1,"network":"nope"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if code := runReplay(&buf, bad); code != 2 {
		t.Errorf("artifact with unknown network exit %d, want 2", code)
	}
}

// TestFdtdFingerprintIsBitwise checks the fingerprint distinguishes a
// one-ulp perturbation — "same fingerprint" genuinely means
// bitwise-equal final state.
func TestFdtdFingerprintIsBitwise(t *testing.T) {
	mk := func() *fdtd.Result {
		g := grid.New3(2, 2, 2, 0)
		g.Set(1, 1, 1, 0.3)
		return &fdtd.Result{Ex: g, Probe: []float64{1, 2, 3}}
	}
	a, b := mk(), mk()
	fa := fdtdFingerprint([]*fdtd.Result{a, nil})
	if fb := fdtdFingerprint([]*fdtd.Result{b, nil}); fa != fb {
		t.Errorf("equal results fingerprint differently: %s vs %s", fa, fb)
	}
	b.Ex.Set(1, 1, 1, math.Nextafter(0.3, 1)) // one ulp away
	if fb := fdtdFingerprint([]*fdtd.Result{b, nil}); fa == fb {
		t.Errorf("one-ulp perturbation not detected by fingerprint %s", fa)
	}
}
