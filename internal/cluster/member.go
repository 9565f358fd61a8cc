package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"
)

// State is a node's position in the membership state machine.
type State int32

// Membership states.  Transitions (driven by periodic probes):
//
//	healthy   --fail×SuspectAfter-->  suspect
//	suspect   --fail×DeadAfter----->  dead       (leaves the routing set)
//	suspect   --ok----------------->  healthy
//	dead      --ok----------------->  rejoining
//	rejoining --ok×RejoinAfter----->  healthy    (re-enters the routing set)
//	rejoining --fail--------------->  dead
//
// A draining node (SIGTERM) answers /healthz with 503, so it walks the
// same path to dead and — once restarted — back through rejoining;
// drain needs no separate administrative state.
const (
	StateHealthy State = iota
	StateSuspect
	StateDead
	StateRejoining
)

func (s State) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateSuspect:
		return "suspect"
	case StateDead:
		return "dead"
	case StateRejoining:
		return "rejoining"
	}
	return "State(?)"
}

// Node names one archserve instance.
type Node struct {
	// Name is the stable ring identity; URL is the node's base HTTP
	// address (e.g. "http://127.0.0.1:8081").  The name, not the URL,
	// determines ring placement, so a node restarted on a new port can
	// keep its arcs.
	Name string `json:"name"`
	URL  string `json:"url"`
}

// MemberConfig tunes the probe loop and the failure thresholds.
type MemberConfig struct {
	// ProbeInterval is the health-check period.  Default 500ms.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe round-trip.  Default 2s.
	ProbeTimeout time.Duration
	// SuspectAfter / DeadAfter are consecutive probe failures before a
	// node is suspected / declared dead.  Defaults 1 / 3.
	SuspectAfter int
	DeadAfter    int
	// RejoinAfter is consecutive probe successes a dead node must show
	// before it serves traffic again.  Default 2.
	RejoinAfter int
}

func (c MemberConfig) withDefaults() MemberConfig {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 1
	}
	if c.DeadAfter <= c.SuspectAfter {
		c.DeadAfter = c.SuspectAfter + 2
	}
	if c.RejoinAfter <= 0 {
		c.RejoinAfter = 2
	}
	return c
}

// member is one node plus its live health state.
type member struct {
	node     Node
	state    State
	fails    int     // consecutive probe failures
	succs    int     // consecutive probe successes while dead/rejoining
	load     float64 // node-reported load score (admitted jobs per worker)
	ok       bool    // a probe has ever succeeded (load is meaningful)
	last     error   // most recent probe failure
	served   int64   // responses this coordinator got from the node
	inflight int64   // requests this coordinator has outstanding at the node
}

// probeStatusError is a probe failure caused by a non-200 healthz
// answer (a draining node answers 503).
type probeStatusError struct{ status int }

func (e *probeStatusError) Error() string { return fmt.Sprintf("healthz status %d", e.status) }

// probeFn checks one node and returns its reported load score.  The
// default implementation does HTTP /healthz + /v1/stats; unit tests
// substitute a deterministic function.
type probeFn func(ctx context.Context, n Node) (load float64, err error)

// Membership runs the health-check loop and answers routing queries.
type Membership struct {
	cfg   MemberConfig
	ring  *Ring
	probe probeFn

	mu      sync.Mutex
	members map[string]*member
	order   []*member // construction order, for stable snapshots

	stop chan struct{}
	done chan struct{}
}

// NewMembership builds the membership layer over the given nodes.  A
// nil probe uses the HTTP prober.  Nodes start healthy (optimistic:
// the first probe round corrects this within ProbeInterval, and
// starting dead would reject traffic during a clean cluster boot).
// Call Start to begin probing and Close to stop.
func NewMembership(nodes []Node, cfg MemberConfig, probe probeFn) (*Membership, error) {
	cfg = cfg.withDefaults()
	names := make([]string, len(nodes))
	for i, n := range nodes {
		if n.URL == "" {
			return nil, fmt.Errorf("cluster: node %q has no URL", n.Name)
		}
		names[i] = n.Name
	}
	ring, err := NewRing(names)
	if err != nil {
		return nil, err
	}
	if probe == nil {
		probe = httpProbe(&http.Client{})
	}
	m := &Membership{
		cfg:     cfg,
		ring:    ring,
		probe:   probe,
		members: make(map[string]*member, len(nodes)),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	for _, n := range nodes {
		mb := &member{node: n, state: StateHealthy}
		m.members[n.Name] = mb
		m.order = append(m.order, mb)
	}
	return m, nil
}

// Ring exposes the (immutable) hash ring.
func (m *Membership) Ring() *Ring { return m.ring }

// Start launches the probe loop.
func (m *Membership) Start() {
	go func() {
		defer close(m.done)
		t := time.NewTicker(m.cfg.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				m.tick()
			}
		}
	}()
}

// Close stops the probe loop and waits for it to exit.
func (m *Membership) Close() {
	select {
	case <-m.stop:
	default:
		close(m.stop)
	}
	<-m.done
}

// tick probes every node concurrently and applies the state machine.
func (m *Membership) tick() {
	m.mu.Lock()
	targets := append([]*member(nil), m.order...)
	m.mu.Unlock()

	type outcome struct {
		mb   *member
		load float64
		err  error
	}
	results := make(chan outcome, len(targets))
	ctx, cancel := context.WithTimeout(context.Background(), m.cfg.ProbeTimeout)
	defer cancel()
	for _, mb := range targets {
		go func(mb *member) {
			load, err := m.probe(ctx, mb.node)
			results <- outcome{mb, load, err}
		}(mb)
	}
	for range targets {
		o := <-results
		m.observe(o.mb, o.load, o.err)
	}
}

// observe applies one probe outcome to one node's state machine.
func (m *Membership) observe(mb *member, load float64, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err == nil {
		mb.last = nil
		mb.fails = 0
		mb.load = load
		mb.ok = true
		switch mb.state {
		case StateSuspect:
			mb.state = StateHealthy
		case StateDead:
			mb.state = StateRejoining
			mb.succs = 1
		case StateRejoining:
			mb.succs++
			if mb.succs >= m.cfg.RejoinAfter {
				mb.state = StateHealthy
				mb.succs = 0
			}
		}
	} else {
		mb.last = err
		mb.fails++
		mb.succs = 0
		switch mb.state {
		case StateHealthy:
			if mb.fails >= m.cfg.SuspectAfter {
				mb.state = StateSuspect
			}
		case StateSuspect:
			if mb.fails >= m.cfg.DeadAfter {
				mb.state = StateDead
			}
		case StateRejoining:
			mb.state = StateDead
		}
	}
}

// State returns a node's current membership state.
func (m *Membership) State(name string) State {
	m.mu.Lock()
	defer m.mu.Unlock()
	if mb, ok := m.members[name]; ok {
		return mb.state
	}
	return StateDead
}

// Route answers "who should serve this fingerprint": the ring primary
// (for the degraded flag — it may itself be unroutable) and the
// ordered candidate nodes.  Candidates are the non-dead nodes, ordered:
//
//  1. the ring primary, if routable — its cache shards this key;
//  2. healthy fallbacks by ascending load (the least-loaded tiebreak:
//     fallbacks are equally cache-cold for this key, so placement goes
//     to capacity), ring order breaking load ties;
//  3. suspect and rejoining nodes in ring order, as a last resort.
//
// An empty candidate list means no node can serve.
func (m *Membership) Route(fp uint64) (primary string, candidates []Node) {
	order := m.ring.Lookup(fp, 0)
	primary = order[0]
	m.mu.Lock()
	defer m.mu.Unlock()
	type cand struct {
		node Node
		cls  int
		load float64
		pos  int
	}
	var cs []cand
	for pos, name := range order {
		mb := m.members[name]
		if mb == nil || mb.state == StateDead {
			continue
		}
		cls := 2
		if mb.state == StateHealthy {
			cls = 1
			if name == primary {
				cls = 0
			}
		}
		cs = append(cs, cand{node: mb.node, cls: cls, load: mb.load, pos: pos})
	}
	sort.SliceStable(cs, func(a, b int) bool {
		if cs[a].cls != cs[b].cls {
			return cs[a].cls < cs[b].cls
		}
		if cs[a].cls == 1 && cs[a].load != cs[b].load {
			return cs[a].load < cs[b].load
		}
		return cs[a].pos < cs[b].pos
	})
	candidates = make([]Node, len(cs))
	for i, c := range cs {
		candidates[i] = c.node
	}
	return primary, candidates
}

// served bumps a node's served counter (coordinator bookkeeping).
func (m *Membership) servedBy(name string) {
	m.mu.Lock()
	if mb, ok := m.members[name]; ok {
		mb.served++
	}
	m.mu.Unlock()
}

// addInflight adjusts a node's coordinator-side outstanding-request
// count (+1 when a forward targets it, -1 when the forward returns).
func (m *Membership) addInflight(name string, d int64) {
	m.mu.Lock()
	if mb, ok := m.members[name]; ok {
		mb.inflight += d
		if mb.inflight < 0 {
			mb.inflight = 0
		}
	}
	m.mu.Unlock()
}

// NodeStatus is one node's row in the membership snapshot.
type NodeStatus struct {
	Name             string  `json:"name"`
	URL              string  `json:"url"`
	State            string  `json:"state"`
	ConsecutiveFails int     `json:"consecutive_fails"`
	Load             float64 `json:"load"`
	Served           int64   `json:"served"`
	Inflight         int64   `json:"inflight"`
	LastError        string  `json:"last_error,omitempty"`
}

// Snapshot reports every node's state in construction order.
func (m *Membership) Snapshot() []NodeStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]NodeStatus, len(m.order))
	for i, mb := range m.order {
		st := NodeStatus{
			Name:             mb.node.Name,
			URL:              mb.node.URL,
			State:            mb.state.String(),
			ConsecutiveFails: mb.fails,
			Load:             mb.load,
			Served:           mb.served,
			Inflight:         mb.inflight,
		}
		if mb.last != nil {
			st.LastError = mb.last.Error()
		}
		out[i] = st
	}
	return out
}

// httpProbe is the production prober: GET /healthz decides liveness
// (archserve answers 503 while draining, which counts as failure and
// starts the node's walk toward dead); on success the node's
// /v1/stats load_score is fetched best-effort for placement tiebreaks.
func httpProbe(hc *http.Client) probeFn {
	return func(ctx context.Context, n Node) (float64, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.URL+"/healthz", nil)
		if err != nil {
			return 0, err
		}
		resp, err := hc.Do(req)
		if err != nil {
			return 0, err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return 0, &probeStatusError{status: resp.StatusCode}
		}
		// Load is advisory: a stats failure must not mark a live node
		// down.
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, n.URL+"/v1/stats", nil)
		if err != nil {
			return 0, nil
		}
		sresp, err := hc.Do(req)
		if err != nil {
			return 0, nil
		}
		defer sresp.Body.Close()
		var st struct {
			LoadScore float64 `json:"load_score"`
		}
		if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
			return 0, nil
		}
		return st.LoadScore, nil
	}
}
