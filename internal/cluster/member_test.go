package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// fakeProbe is a controllable prober: tests flip per-node outcomes
// between ticks.
type fakeProbe struct {
	fail map[string]bool
	load map[string]float64
}

func (f *fakeProbe) fn(_ context.Context, n Node) (float64, error) {
	if f.fail[n.Name] {
		return 0, errors.New("injected probe failure")
	}
	return f.load[n.Name], nil
}

func testNodes(names ...string) []Node {
	out := make([]Node, len(names))
	for i, n := range names {
		out[i] = Node{Name: n, URL: "http://" + n + ".invalid"}
	}
	return out
}

func newTestMembership(t *testing.T, probe *fakeProbe, names ...string) *Membership {
	t.Helper()
	m, err := NewMembership(testNodes(names...), MemberConfig{
		SuspectAfter: 1,
		DeadAfter:    3,
		RejoinAfter:  2,
	}, probe.fn)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestMemberStateMachine walks one node through the full lifecycle:
// healthy -> suspect -> dead -> rejoining -> healthy, with a relapse
// (rejoining -> dead) in the middle.
func TestMemberStateMachine(t *testing.T) {
	probe := &fakeProbe{fail: map[string]bool{}, load: map[string]float64{}}
	m := newTestMembership(t, probe, "a", "b")

	if got := m.State("a"); got != StateHealthy {
		t.Fatalf("initial state %v, want healthy", got)
	}

	probe.fail["a"] = true
	m.tick()
	if got := m.State("a"); got != StateSuspect {
		t.Fatalf("after 1 failure: %v, want suspect (SuspectAfter=1)", got)
	}

	// Suspect recovers straight to healthy on one success.
	probe.fail["a"] = false
	m.tick()
	if got := m.State("a"); got != StateHealthy {
		t.Fatalf("after recovery: %v, want healthy", got)
	}

	// Three consecutive failures kill it (DeadAfter=3).
	probe.fail["a"] = true
	for i := 0; i < 3; i++ {
		m.tick()
	}
	if got := m.State("a"); got != StateDead {
		t.Fatalf("after 3 failures: %v, want dead", got)
	}

	// First success moves dead to rejoining, not straight to healthy.
	probe.fail["a"] = false
	m.tick()
	if got := m.State("a"); got != StateRejoining {
		t.Fatalf("after 1 success while dead: %v, want rejoining", got)
	}

	// A relapse while rejoining falls back to dead immediately.
	probe.fail["a"] = true
	m.tick()
	if got := m.State("a"); got != StateDead {
		t.Fatalf("failure while rejoining: %v, want dead", got)
	}

	// RejoinAfter=2 consecutive successes complete the rejoin.
	probe.fail["a"] = false
	m.tick()
	m.tick()
	if got := m.State("a"); got != StateHealthy {
		t.Fatalf("after %d successes: %v, want healthy", 2, got)
	}

	// The untouched node never left healthy.
	if got := m.State("b"); got != StateHealthy {
		t.Fatalf("bystander node state %v, want healthy", got)
	}
}

// TestRouteFailoverAndArcStability: when a key's primary dies the key
// moves to a fallback, while keys owned by living primaries keep their
// routing untouched.
func TestRouteFailoverAndArcStability(t *testing.T) {
	probe := &fakeProbe{fail: map[string]bool{}, load: map[string]float64{}}
	m := newTestMembership(t, probe, "a", "b", "c")

	// Record healthy-cluster primaries for a swath of keys.
	before := map[uint64]string{}
	var victimKey uint64
	victim := ""
	for key := uint64(0); key < 300; key++ {
		p, cands := m.Route(key)
		if len(cands) != 3 {
			t.Fatalf("key %d: %d candidates, want 3", key, len(cands))
		}
		if cands[0].Name != p {
			t.Fatalf("key %d: healthy primary %q not first candidate (%q)", key, p, cands[0].Name)
		}
		before[key] = p
		if victim == "" {
			victim, victimKey = p, key
		}
	}

	// Kill the victim.
	probe.fail[victim] = true
	for i := 0; i < 3; i++ {
		m.tick()
	}
	if got := m.State(victim); got != StateDead {
		t.Fatalf("victim state %v, want dead", got)
	}

	p, cands := m.Route(victimKey)
	if p != victim {
		t.Fatalf("reported primary changed to %q, want the (dead) ring primary %q", p, victim)
	}
	if len(cands) != 2 {
		t.Fatalf("%d candidates with one node dead, want 2", len(cands))
	}
	for _, c := range cands {
		if c.Name == victim {
			t.Fatalf("dead node %q still a candidate", victim)
		}
	}

	// Every key owned by a living primary routes exactly as before.
	for key, prim := range before {
		if prim == victim {
			continue
		}
		_, cands := m.Route(key)
		if cands[0].Name != prim {
			t.Fatalf("key %d: living primary moved %q -> %q after unrelated death",
				key, prim, cands[0].Name)
		}
	}

	// Rejoin: the victim's arcs come back verbatim.
	probe.fail[victim] = false
	m.tick()
	m.tick()
	for key, prim := range before {
		_, cands := m.Route(key)
		if cands[0].Name != prim {
			t.Fatalf("key %d: primary %q not restored after rejoin (got %q)",
				key, prim, cands[0].Name)
		}
	}
}

// TestRouteLeastLoadedFallback: with the primary dead, healthy
// fallbacks are offered in ascending load order — they are equally
// cache-cold for the key, so placement goes to capacity.
func TestRouteLeastLoadedFallback(t *testing.T) {
	probe := &fakeProbe{fail: map[string]bool{}, load: map[string]float64{}}
	m := newTestMembership(t, probe, "a", "b", "c", "d")

	// Find a key and learn its primary, then load up the fallbacks
	// unevenly.
	key := uint64(7)
	prim, _ := m.Route(key)
	for _, n := range []string{"a", "b", "c", "d"} {
		probe.load[n] = 5
	}
	least := ""
	for _, n := range []string{"a", "b", "c", "d"} {
		if n != prim {
			least = n
			break
		}
	}
	probe.load[least] = 0.5
	probe.fail[prim] = true
	for i := 0; i < 3; i++ {
		m.tick()
	}

	_, cands := m.Route(key)
	if len(cands) != 3 {
		t.Fatalf("%d candidates, want 3", len(cands))
	}
	if cands[0].Name != least {
		t.Fatalf("first fallback %q, want least-loaded %q", cands[0].Name, least)
	}

	// While the primary is alive it outranks even idle fallbacks: the
	// key's cache lives there.  Two ticks: dead -> rejoining -> healthy
	// (RejoinAfter=2).
	probe.fail[prim] = false
	probe.load[prim] = 50
	m.tick()
	m.tick()
	_, cands = m.Route(key)
	if cands[0].Name != prim {
		t.Fatalf("alive primary %q not first despite load (got %q)", prim, cands[0].Name)
	}
}

// TestRouteAllDead: no live node leaves an empty candidate list (the
// coordinator turns this into 503).
func TestRouteAllDead(t *testing.T) {
	probe := &fakeProbe{fail: map[string]bool{"a": true, "b": true}, load: map[string]float64{}}
	m := newTestMembership(t, probe, "a", "b")
	for i := 0; i < 3; i++ {
		m.tick()
	}
	_, cands := m.Route(1)
	if len(cands) != 0 {
		t.Fatalf("%d candidates with every node dead, want 0", len(cands))
	}
}

// TestSnapshot reports states, fail counters and last errors.
func TestSnapshot(t *testing.T) {
	probe := &fakeProbe{fail: map[string]bool{"b": true}, load: map[string]float64{"a": 1.5}}
	m := newTestMembership(t, probe, "a", "b")
	m.tick()
	snap := m.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d rows, want 2", len(snap))
	}
	byName := map[string]NodeStatus{}
	for _, s := range snap {
		byName[s.Name] = s
	}
	if s := byName["a"]; s.State != "healthy" || s.Load != 1.5 || s.LastError != "" {
		t.Fatalf("node a snapshot %+v", s)
	}
	if s := byName["b"]; s.State != "suspect" || s.ConsecutiveFails != 1 || s.LastError == "" {
		t.Fatalf("node b snapshot %+v", s)
	}
}

// TestProbeLoopRuns exercises the real ticker loop end to end (the
// other tests call tick directly for determinism).
func TestProbeLoopRuns(t *testing.T) {
	probe := &fakeProbe{fail: map[string]bool{"a": true}, load: map[string]float64{}}
	m, err := NewMembership(testNodes("a"), MemberConfig{
		ProbeInterval: 5 * time.Millisecond,
		SuspectAfter:  1,
		DeadAfter:     2,
	}, probe.fn)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	defer m.Close()
	deadline := time.Now().Add(5 * time.Second)
	for m.State("a") != StateDead {
		if time.Now().After(deadline) {
			t.Fatalf("node never died under the probe loop; state %v", m.State("a"))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMembershipValidation rejects bad rosters.
func TestMembershipValidation(t *testing.T) {
	if _, err := NewMembership([]Node{{Name: "a"}}, MemberConfig{}, nil); err == nil {
		t.Fatal("node without URL accepted")
	}
	if _, err := NewMembership(nil, MemberConfig{}, nil); err == nil {
		t.Fatal("empty roster accepted")
	}
}

// --- probe degradation (best-effort load fetch) ---

// statsProbeServer is a real HTTP node whose /healthz is fine and whose
// /v1/stats misbehaves in a configurable way.
func statsProbeServer(t *testing.T, stats http.HandlerFunc) Node {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/v1/stats", stats)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return Node{Name: "n", URL: srv.URL}
}

// TestProbeLoadFetchDegrades: the load-score fetch is advisory — a
// stats endpoint that answers garbage, errors, or drops the connection
// must leave the node healthy with a tiebreak-neutral load of zero.
func TestProbeLoadFetchDegrades(t *testing.T) {
	cases := []struct {
		name  string
		stats http.HandlerFunc
	}{
		{"garbage body", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprint(w, "}}not json{{")
		}},
		{"server error", func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "boom", http.StatusInternalServerError)
			// A 500 with a non-JSON body must not shadow the healthz verdict.
		}},
		{"connection dropped", func(w http.ResponseWriter, r *http.Request) {
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Fatal("response writer not hijackable")
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				t.Fatal(err)
			}
			conn.Close()
		}},
		{"wrong shape", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprint(w, `{"load_score":"not a number"}`)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := statsProbeServer(t, tc.stats)
			probe := httpProbe(&http.Client{})
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			load, err := probe(ctx, n)
			if err != nil {
				t.Fatalf("stats failure marked a live node down: %v", err)
			}
			if load != 0 {
				t.Fatalf("degraded load fetch returned %v, want tiebreak-neutral 0", load)
			}
		})
	}
}

// TestProbeLoadFetchHangNeverWedges: a stats endpoint that never
// answers is bounded by the probe timeout — the loop keeps ticking and
// the node stays healthy on its good healthz.
func TestProbeLoadFetchHangNeverWedges(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	n := statsProbeServer(t, func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	})
	m, err := NewMembership([]Node{n}, MemberConfig{
		ProbeInterval: 10 * time.Millisecond,
		ProbeTimeout:  30 * time.Millisecond,
		SuspectAfter:  1,
		DeadAfter:     3,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	defer m.Close()

	// Several probe periods must elapse (each one's stats fetch hanging
	// until its timeout) without the loop wedging or the node leaving
	// healthy.
	deadline := time.Now().Add(2 * time.Second)
	for {
		snap := m.Snapshot()[0]
		if snap.State != "healthy" {
			t.Fatalf("node with hanging stats left healthy: %+v", snap)
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestInflightAccounting: addInflight tracks per-node outstanding
// forwards, clamps at zero, ignores unknown nodes, and shows in the
// snapshot.
func TestInflightAccounting(t *testing.T) {
	probe := &fakeProbe{fail: map[string]bool{}, load: map[string]float64{"a": 1.5}}
	m := newTestMembership(t, probe, "a", "b")
	m.tick()
	m.addInflight("a", 1)
	m.addInflight("a", 1)
	m.addInflight("a", -1)
	m.addInflight("b", -5)
	m.addInflight("nope", 1)
	want := map[string]int64{"a": 1, "b": 0}
	snap := m.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d rows, want 2", len(snap))
	}
	for _, s := range snap {
		if s.Inflight != want[s.Name] {
			t.Fatalf("node %s inflight %d, want %d", s.Name, s.Inflight, want[s.Name])
		}
	}
	if snap[0].Load != 1.5 {
		t.Fatalf("node a load %v, want 1.5", snap[0].Load)
	}
}
