package sched

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/trace"
)

func TestParsePolicyRoundTrip(t *testing.T) {
	cases := []struct {
		spec     string
		wantName string
		wantSpec string // "" means identical to spec
	}{
		{spec: "lowest", wantName: "lowest"},
		{spec: "highest", wantName: "highest"},
		{spec: "rr", wantName: "round-robin"},
		{spec: "round-robin", wantName: "round-robin", wantSpec: "rr"},
		{spec: "alt", wantName: "alternating"},
		{spec: "alternating", wantName: "alternating", wantSpec: "alt"},
		{spec: "lifo", wantName: "lifo"},
		{spec: "rand:1", wantName: "random"},
		{spec: "rand:-42", wantName: "random"},
	}
	for _, c := range cases {
		t.Run(c.spec, func(t *testing.T) {
			p, err := ParsePolicy(c.spec)
			if err != nil {
				t.Fatalf("ParsePolicy(%q): %v", c.spec, err)
			}
			if p.Name() != c.wantName {
				t.Errorf("Name = %q, want %q", p.Name(), c.wantName)
			}
			want := c.wantSpec
			if want == "" {
				want = c.spec
			}
			if got := PolicySpec(p); got != want {
				t.Errorf("PolicySpec = %q, want %q", got, want)
			}
			// Round trip: the spec form must parse back to the same policy.
			q, err := ParsePolicy(PolicySpec(p))
			if err != nil {
				t.Fatalf("re-parse %q: %v", PolicySpec(p), err)
			}
			if q.Name() != p.Name() {
				t.Errorf("re-parsed policy is %q, want %q", q.Name(), p.Name())
			}
		})
	}
}

func TestParsePolicyErrors(t *testing.T) {
	for _, spec := range []string{"", "bogus", "rand:", "rand:x", "replay:", "replay:/no/such/file.json"} {
		if _, err := ParsePolicy(spec); err == nil {
			t.Errorf("ParsePolicy(%q) succeeded, want error", spec)
		}
	}
}

func TestParsePolicyRandSeedPreserved(t *testing.T) {
	p, err := ParsePolicy("rand:7")
	if err != nil {
		t.Fatal(err)
	}
	r, ok := p.(*Random)
	if !ok {
		t.Fatalf("ParsePolicy(rand:7) = %T, want *Random", p)
	}
	if r.Seed() != 7 {
		t.Fatalf("seed = %d, want 7", r.Seed())
	}
}

func TestScheduleReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sched.json")
	s := Schedule{Picks: []int{1, 0, 1}, Continue: "rr"}
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	p, err := ParsePolicy("replay:" + path)
	if err != nil {
		t.Fatal(err)
	}
	r, ok := p.(*Replay)
	if !ok {
		t.Fatalf("ParsePolicy(replay:...) = %T, want *Replay", p)
	}
	if fmt.Sprint(r.Picks()) != fmt.Sprint(s.Picks) {
		t.Errorf("picks = %v, want %v", r.Picks(), s.Picks)
	}
	if got := PolicySpec(r.cont); got != "rr" {
		t.Errorf("continuation = %q, want rr", got)
	}
	if got, want := PolicySpec(r), "replay:"+path; got != want {
		t.Errorf("PolicySpec = %q, want %q", got, want)
	}
	// The spec form must itself parse (the round trip through a file).
	if _, err := ParsePolicy(PolicySpec(r)); err != nil {
		t.Fatalf("re-parse: %v", err)
	}
}

func TestScheduleRejectsReplayContinuation(t *testing.T) {
	if _, err := (Schedule{Continue: "replay:x.json"}).Policy(); err == nil {
		t.Fatal("replay continuation accepted, want error")
	}
}

func TestReplayForcesPrefixThenContinues(t *testing.T) {
	rounds := 2
	mk := func() []Proc[int, int] { return pingPong(rounds) }

	// Reference: the continuation alone.
	ref := tracedRun(t, mk(), Lowest{})

	// Forcing the reference's own picks must reproduce it exactly.
	rec := &recordingPolicy{inner: Lowest{}}
	if _, err := RunControlled(mk(), rec, Options[int]{}); err != nil {
		t.Fatal(err)
	}
	re := NewReplay(rec.picks, Lowest{})
	got := tracedRun(t, mk(), re)
	if got != ref {
		t.Fatalf("replayed trace differs from original:\n%s\nvs\n%s", got, ref)
	}
	if _, diverged := re.Diverged(); diverged {
		t.Fatal("replay of a recorded schedule reported divergence")
	}

	// A partial prefix forces its steps, then the continuation takes over.
	half := NewReplay(rec.picks[:len(rec.picks)/2], Lowest{})
	if got := tracedRun(t, mk(), half); got != ref {
		t.Fatalf("half-prefix replay with same continuation diverged:\n%s\nvs\n%s", got, ref)
	}
}

func TestReplayRecordsDivergenceOnDisabledPick(t *testing.T) {
	mk := func() []Proc[int, int] { return pingPong(1) }
	// Rank 1 starts blocked in Recv, so forcing it first is infeasible.
	re := NewReplay([]int{1}, Lowest{})
	if _, err := RunControlled(mk(), re, Options[int]{}); err != nil {
		t.Fatal(err)
	}
	step, diverged := re.Diverged()
	if !diverged || step != 0 {
		t.Fatalf("Diverged = (%d, %v), want (0, true)", step, diverged)
	}
}

// tracedRun executes the network under pol and returns the formatted
// trace.
func tracedRun(t *testing.T, procs []Proc[int, int], pol Policy) string {
	t.Helper()
	tr := trace.New()
	if _, err := RunControlled(procs, pol, Options[int]{Trace: tr}); err != nil {
		t.Fatal(err)
	}
	return tr.Format()
}
