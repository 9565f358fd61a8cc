package explore

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sched"
)

// TestMinimizeRacyDivergence drives the full pipeline the determinacy
// tool automates: explore finds divergences in the racy demo, ddmin
// shrinks one, and the minimal forced prefix still reproduces the
// divergent outcome under the plain continuation.
func TestMinimizeRacyDivergence(t *testing.T) {
	opt := Options[int]{Mode: DepSteps}
	rep, err := Run(racy2, opt)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(rep.Divergences) == 0 {
		t.Fatalf("exploration found no divergences in the racy demo")
	}
	for _, div := range rep.Divergences {
		m, err := Minimize(racy2, opt, div)
		if err != nil {
			t.Fatalf("Minimize(%v): %v", div.Picks, err)
		}
		if len(m.Picks) > len(div.Picks) {
			t.Errorf("minimized %v is longer than original %v", m.Picks, div.Picks)
		}
		// Hand-computed minima under the "lowest" continuation:
		// outcome [1 1] needs only the forced pick [1] (P1's write
		// first); [2 2] needs [0 1] (both writes before any read).
		switch div.Outcome {
		case "[1 1]":
			if !reflect.DeepEqual(m.Picks, []int{1}) {
				t.Errorf("outcome [1 1]: minimized to %v, want [1]", m.Picks)
			}
		case "[2 2]":
			if !reflect.DeepEqual(m.Picks, []int{0, 1}) {
				t.Errorf("outcome [2 2]: minimized to %v, want [0 1]", m.Picks)
			}
		default:
			t.Errorf("unexpected diverging outcome %q", div.Outcome)
		}
		if m.Outcome != div.Outcome || m.Reference != rep.Reference {
			t.Errorf("minimized outcome %q / reference %q, want %q / %q", m.Outcome, m.Reference, div.Outcome, rep.Reference)
		}
		if len(m.Trace) != len(m.Picks) {
			t.Fatalf("trace has %d lines for %d picks", len(m.Trace), len(m.Picks))
		}
		for i, l := range m.Trace {
			if l.Step != i || l.Rank != m.Picks[i] || l.Op != "step" {
				t.Errorf("trace line %d = %+v, want step %d by P%d", i, l, i, m.Picks[i])
			}
		}
		// The minimal prefix must replay to the divergent outcome.
		got, err := ReplayOutcome(racy2, opt, m.Schedule("lowest"))
		if err != nil {
			t.Fatalf("ReplayOutcome: %v", err)
		}
		if got != div.Outcome {
			t.Errorf("replayed outcome %q, want %q", got, div.Outcome)
		}
	}
}

func TestMinimizeRejectsNonDivergence(t *testing.T) {
	opt := Options[int]{Mode: DepSteps}
	rep, err := Run(racy2, opt)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if _, err := Minimize(racy2, opt, Divergence{Picks: []int{0}, Outcome: rep.Reference}); err == nil {
		t.Fatalf("Minimize accepted a schedule whose outcome equals the reference")
	}
	if _, err := Minimize(racy2, opt, Divergence{Picks: []int{0}, Outcome: "[9 9]"}); err == nil {
		t.Fatalf("Minimize accepted a schedule that does not reproduce its claimed outcome")
	}
}

func TestArtifactRoundTrip(t *testing.T) {
	opt := Options[int]{Mode: DepSteps}
	rep, err := Run(racy2, opt)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	m, err := Minimize(racy2, opt, rep.Divergences[0])
	if err != nil {
		t.Fatalf("Minimize: %v", err)
	}
	a := m.Artifact("racy", 2, DepSteps, "lowest")
	path := filepath.Join(t.TempDir(), "divergence.json")
	if err := a.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	b, err := LoadArtifact(path)
	if err != nil {
		t.Fatalf("LoadArtifact: %v", err)
	}
	if b.Network != "racy" || b.Mode != "steps" || b.P != 2 {
		t.Errorf("loaded artifact header %q/%q/p=%d", b.Network, b.Mode, b.P)
	}
	if !reflect.DeepEqual(b.Schedule.Picks, m.Picks) || b.Schedule.Continue != "lowest" {
		t.Errorf("loaded schedule %+v, want picks %v", b.Schedule, m.Picks)
	}
	if b.Outcome != m.Outcome || b.Reference != m.Reference {
		t.Errorf("loaded fingerprints %q/%q, want %q/%q", b.Outcome, b.Reference, m.Outcome, m.Reference)
	}
	// The artifact replays bitwise: the reloaded schedule reproduces
	// the divergent final state on a fresh network.
	got, err := ReplayOutcome(racy2, Options[int]{Mode: DepSteps}, b.Schedule)
	if err != nil {
		t.Fatalf("ReplayOutcome: %v", err)
	}
	if got != b.Outcome {
		t.Errorf("replayed %q, want artifact outcome %q", got, b.Outcome)
	}
}

func TestLoadArtifactRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]string{
		"nojson.json":  "not json",
		"version.json": `{"version": 99, "network": "racy"}`,
		"nonet.json":   `{"version": 1}`,
		// A negative forced pick names no rank; LoadSchedule rejects
		// it, and so must the artifact loader.
		"negpick.json": `{"version": 1, "network": "racy", "schedule": {"picks": [0, -1]}}`,
	}
	for name, body := range cases {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadArtifact(p); err == nil {
			t.Errorf("%s: LoadArtifact accepted it", name)
		}
	}
	if _, err := LoadArtifact(filepath.Join(dir, "missing.json")); err == nil {
		t.Errorf("LoadArtifact accepted a missing file")
	}
}

func TestReplayOutcomeRejectsInfeasibleSchedule(t *testing.T) {
	// pipeline3 starts with only P0 enabled; forcing P2 first is
	// infeasible and must be reported, not silently rescheduled.
	_, err := ReplayOutcome(pipeline3, Options[int]{}, sched.Schedule{Picks: []int{2}, Continue: "lowest"})
	if err == nil || !strings.Contains(err.Error(), "infeasible") {
		t.Fatalf("ReplayOutcome err = %v, want infeasible", err)
	}
}

func TestDdminIsMinimal(t *testing.T) {
	// Property: the result still fails, and removing any single element
	// no longer does.  Predicate: contains both a 3 and a 7 in order.
	fails := func(s []int) bool {
		seen3 := false
		for _, v := range s {
			if v == 3 {
				seen3 = true
			}
			if v == 7 && seen3 {
				return true
			}
		}
		return false
	}
	in := []int{1, 2, 3, 4, 5, 6, 7, 8}
	got := ddmin(in, fails)
	if !fails(got) {
		t.Fatalf("ddmin result %v does not satisfy the predicate", got)
	}
	if !reflect.DeepEqual(got, []int{3, 7}) {
		t.Errorf("ddmin = %v, want [3 7]", got)
	}
}

func TestMinimizedFormatIsHumanReadable(t *testing.T) {
	opt := Options[int]{Mode: DepSteps}
	rep, err := Run(racy2, opt)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	m, err := Minimize(racy2, opt, rep.Divergences[0])
	if err != nil {
		t.Fatalf("Minimize: %v", err)
	}
	out := m.Format()
	for _, want := range []string{"forced pick", `step "w"`, m.Outcome, m.Reference} {
		if !strings.Contains(out, want) {
			t.Errorf("Format() missing %q:\n%s", want, out)
		}
	}
}
