package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/cluster/client"
	"repro/internal/serve"
)

// replicator moves cache entries between nodes.  It owns the three
// cache-motion flows, all coordinator-orchestrated and all sound by
// Theorem 1 (a cached result is bitwise interchangeable with any node's
// recomputation, so copying one never changes an answer):
//
//   - hot replication: a fingerprint the hot-set tracker promotes gets
//     its cached result copied from the ring primary to the next
//     Replicas healthy ring successors, making the key servable by
//     several nodes (power-of-two-choices routing then spreads it);
//   - drain handoff: when a node announces a graceful drain (healthz
//     503), its whole cache index is pulled during the drain-grace
//     window and every entry is pushed to the first healthy node on
//     that key's arc, so the successors inherit the cache instead of
//     recomputing it;
//   - rejoin prefill: when a node completes the dead→rejoining→healthy
//     walk it comes back cache-cold; the entries it is ring primary for
//     are pulled from whichever healthy node holds them and pushed back,
//     so the reclaimed arcs serve warm immediately.
//
// Entries travel as the verbatim bytes of GET /v1/cache/{fp} — never
// decoded, never re-encoded — and the receiving node asserts the
// fingerprint before admission.  Every flow is best-effort and
// asynchronous: a failed copy costs a future recompute, never an
// answer, so nothing here sits on the request path.
type replicator struct {
	cfg    HotConfig
	member *Membership
	client *client.Client

	ctx    context.Context // cancelled by close; bounds in-flight transfers
	cancel context.CancelFunc

	mu     sync.Mutex
	done   map[uint64]map[string]bool // fp -> nodes that confirmed admission
	busy   map[uint64]bool            // fp replication task in flight
	closed bool

	wg sync.WaitGroup

	// counters (exposed via coordinator /v1/stats and /metrics)
	replicated    atomic.Int64 // hot entries successfully copied to a successor
	replicateErrs atomic.Int64 // failed copy attempts (any flow)
	handoffCount  atomic.Int64 // entries moved off a draining node
	prefillCount  atomic.Int64 // entries pushed to a rejoined node
}

func newReplicator(cfg HotConfig, m *Membership, cl *client.Client) *replicator {
	ctx, cancel := context.WithCancel(context.Background())
	return &replicator{
		cfg:    cfg,
		member: m,
		client: cl,
		ctx:    ctx,
		cancel: cancel,
		done:   make(map[uint64]map[string]bool),
		busy:   make(map[uint64]bool),
	}
}

// close cancels in-flight transfers and waits for the background tasks.
func (r *replicator) close() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	r.cancel()
	r.wg.Wait()
}

// spawn runs f on a tracked goroutine, unless the replicator is closed.
func (r *replicator) spawn(f func()) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.wg.Add(1)
	r.mu.Unlock()
	go func() {
		defer r.wg.Done()
		f()
	}()
}

func cachePath(fp uint64) string { return "/v1/cache/" + fpKey(fp) }

// markDone records that node confirmed admission of fp.
func (r *replicator) markDone(fp uint64, node string) {
	r.mu.Lock()
	if r.done[fp] == nil {
		r.done[fp] = make(map[string]bool, r.cfg.Replicas)
	}
	r.done[fp][node] = true
	r.mu.Unlock()
}

// forget drops every admission record for node — called when the node
// rejoins after dying, because a restarted process has an empty cache
// no matter what the old incarnation confirmed.
func (r *replicator) forget(node string) {
	r.mu.Lock()
	for _, nodes := range r.done {
		delete(nodes, node)
	}
	r.mu.Unlock()
}

// replicaNodes returns the currently-healthy nodes known to hold fp, in
// placement order: the ring primary (which computed and cached the
// entry) first, then the successors that confirmed admission.  The
// "known to hold" is optimistic — a replica may since have evicted the
// entry — but a stale entry only costs that node one recompute, so the
// map is never invalidated by eviction, only by node death (forget).
func (r *replicator) replicaNodes(fp uint64, primary string) []Node {
	var out []Node
	if n, ok := r.member.healthyNode(primary); ok {
		out = append(out, n)
	}
	// The inner map is written by markDone under mu, so it is read
	// under mu too.
	var held []string
	r.mu.Lock()
	for _, name := range r.member.ring.SuccessorsN(fp, r.cfg.Replicas) {
		if name != primary && r.done[fp][name] {
			held = append(held, name)
		}
	}
	r.mu.Unlock()
	for _, name := range held {
		if n, ok := r.member.healthyNode(name); ok {
			out = append(out, n)
		}
	}
	return out
}

// maybeReplicate schedules a replication pass for a hot fingerprint,
// unless one is already running or every successor has confirmed.
func (r *replicator) maybeReplicate(fp uint64, primary string) {
	r.mu.Lock()
	if r.busy[fp] {
		r.mu.Unlock()
		return
	}
	pending := false
	for _, name := range r.member.ring.SuccessorsN(fp, r.cfg.Replicas) {
		if name != primary && !r.done[fp][name] {
			pending = true
			break
		}
	}
	if !pending {
		r.mu.Unlock()
		return
	}
	r.busy[fp] = true
	r.mu.Unlock()
	r.spawn(func() {
		defer func() {
			r.mu.Lock()
			delete(r.busy, fp)
			r.mu.Unlock()
		}()
		r.runReplicate(fp, primary)
	})
}

// runReplicate copies fp's cached entry to the healthy ring successors
// that have not confirmed it yet.  The source is the primary (it served
// the traffic that made the key hot, so its cache holds the entry) or,
// failing that, any successor that already confirmed.  A miss at every
// source means the entry has not been computed yet — the next hot
// observation retries.
func (r *replicator) runReplicate(fp uint64, primary string) {
	var targets []Node
	r.mu.Lock()
	holders := make(map[string]bool, len(r.done[fp]))
	for name := range r.done[fp] {
		holders[name] = true
	}
	r.mu.Unlock()
	for _, name := range r.member.ring.SuccessorsN(fp, r.cfg.Replicas) {
		if name == primary || holders[name] {
			continue
		}
		if n, ok := r.member.healthyNode(name); ok {
			targets = append(targets, n)
		}
	}
	if len(targets) == 0 {
		return
	}
	var sources []Node
	if n, ok := r.member.healthyNode(primary); ok {
		sources = append(sources, n)
	}
	for name := range holders {
		if n, ok := r.member.healthyNode(name); ok && name != primary {
			sources = append(sources, n)
		}
	}
	body := r.fetch(sources, fp)
	if body == nil {
		return
	}
	for _, t := range targets {
		if r.push(t, fp, body) {
			r.replicated.Add(1)
		}
	}
}

// fetch pulls fp's entry from the first source that has it, returning
// the verbatim response bytes (nil when no source holds the entry).
func (r *replicator) fetch(sources []Node, fp uint64) []byte {
	for _, s := range sources {
		status, body, err := r.client.GetJSON(r.ctx, s.URL, cachePath(fp))
		if err == nil && status == http.StatusOK {
			return body
		}
		if err != nil || status != http.StatusNotFound {
			r.replicateErrs.Add(1)
		}
	}
	return nil
}

// push offers fp's entry (verbatim bytes) to one node.
func (r *replicator) push(n Node, fp uint64, body []byte) bool {
	status, _, err := r.client.PutJSON(r.ctx, n.URL, cachePath(fp), body)
	if err != nil || status != http.StatusNoContent {
		r.replicateErrs.Add(1)
		return false
	}
	r.markDone(fp, n.Name)
	return true
}

// onDrain is the membership drain event: the node answered healthz with
// 503, meaning it is draining gracefully and its cache stays servable
// for the drain-grace window.  Pull its index and move every entry to
// the first healthy node on that key's arc — for keys the drainer was
// primary for that is the new acting primary, so the successor serves
// warm the moment routing fails over.
func (r *replicator) onDrain(n Node) {
	r.spawn(func() { r.handoffFrom(n) })
}

func (r *replicator) handoffFrom(n Node) {
	fps, ok := r.fetchIndex(n)
	if !ok {
		return
	}
	for _, fp := range fps {
		if r.ctx.Err() != nil {
			return
		}
		target, ok := r.firstHealthyFor(fp, n.Name)
		if !ok {
			continue
		}
		body := r.fetch([]Node{n}, fp)
		if body == nil {
			continue
		}
		if r.push(target, fp, body) {
			r.handoffCount.Add(1)
		}
	}
}

// onRejoin is the membership rejoin event: the node walked back to
// healthy after being dead.  A restarted process has an empty cache, so
// its old admission records are dropped, and the entries it is ring
// primary for are pulled from whichever healthy peer holds them and
// pushed back — the reclaimed arcs serve warm instead of cold (the
// ROADMAP "rejoin serves cold" gap).
func (r *replicator) onRejoin(n Node) {
	r.forget(n.Name)
	r.spawn(func() { r.prefillTo(n) })
}

func (r *replicator) prefillTo(n Node) {
	pushed := make(map[uint64]bool)
	for _, st := range r.member.Snapshot() {
		if st.Name == n.Name || st.State != StateHealthy.String() {
			continue
		}
		peer := Node{Name: st.Name, URL: st.URL}
		fps, ok := r.fetchIndex(peer)
		if !ok {
			continue
		}
		for _, fp := range fps {
			if r.ctx.Err() != nil {
				return
			}
			if pushed[fp] || r.member.ring.Primary(fp) != n.Name {
				continue
			}
			body := r.fetch([]Node{peer}, fp)
			if body == nil {
				continue
			}
			if r.push(n, fp, body) {
				pushed[fp] = true
				r.prefillCount.Add(1)
			}
		}
	}
}

// fetchIndex pulls a node's cache index (GET /v1/cache).
func (r *replicator) fetchIndex(n Node) ([]uint64, bool) {
	status, body, err := r.client.GetJSON(r.ctx, n.URL, "/v1/cache")
	if err != nil || status != http.StatusOK {
		if r.ctx.Err() == nil {
			r.replicateErrs.Add(1)
		}
		return nil, false
	}
	var idx serve.CacheIndex
	if err := json.Unmarshal(body, &idx); err != nil {
		r.replicateErrs.Add(1)
		return nil, false
	}
	fps := make([]uint64, 0, len(idx.Fingerprints))
	for _, s := range idx.Fingerprints {
		fp, err := strconv.ParseUint(s, 16, 64)
		if err != nil {
			continue
		}
		fps = append(fps, fp)
	}
	return fps, true
}

// firstHealthyFor returns the first healthy node on fp's arc other than
// skip — the natural inheritor of skip's copy of the entry.
func (r *replicator) firstHealthyFor(fp uint64, skip string) (Node, bool) {
	for _, name := range r.member.ring.Lookup(fp, 0) {
		if name == skip {
			continue
		}
		if n, ok := r.member.healthyNode(name); ok {
			return n, true
		}
	}
	return Node{}, false
}

// stats snapshots the replicator counters.
func (r *replicator) stats() (replicated, errs, handoff, prefill int64) {
	return r.replicated.Load(), r.replicateErrs.Load(), r.handoffCount.Load(), r.prefillCount.Load()
}
