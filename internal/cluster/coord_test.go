package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster/client"
	"repro/internal/fdtd"
	"repro/internal/serve"
)

// uniqueSpec returns a fast Version A spec distinguishable by i (the
// source delay perturbs the fingerprint without changing the cost).
func uniqueSpec(i int) fdtd.Spec {
	s := fdtd.SpecSmallA()
	s.Source.Delay = 5 + float64(i)
	return s
}

// testCluster is an in-process cluster: real serve.Servers behind
// httptest listeners, a coordinator probing them fast.
type testCluster struct {
	coord   *Coordinator
	front   *httptest.Server
	nodes   map[string]*httptest.Server
	servers map[string]*serve.Server
}

func newTestCluster(t *testing.T, names ...string) *testCluster {
	t.Helper()
	tc := &testCluster{
		nodes:   make(map[string]*httptest.Server),
		servers: make(map[string]*serve.Server),
	}
	var roster []Node
	for _, name := range names {
		s := serve.New(serve.Config{P: 2, Workers: 1})
		srv := httptest.NewServer(s.Handler())
		tc.nodes[name] = srv
		tc.servers[name] = s
		roster = append(roster, Node{Name: name, URL: srv.URL})
		t.Cleanup(func() {
			srv.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			s.Shutdown(ctx)
		})
	}
	coord, err := New(Config{
		Nodes: roster,
		Member: MemberConfig{
			ProbeInterval: 10 * time.Millisecond,
			SuspectAfter:  1,
			DeadAfter:     2,
			RejoinAfter:   1,
		},
		Client: client.Policy{
			MaxAttempts: 6,
			BaseBackoff: time.Millisecond,
			MaxBackoff:  10 * time.Millisecond,
		},
		Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tc.coord = coord
	tc.front = httptest.NewServer(coord.Handler())
	t.Cleanup(func() {
		tc.front.Close()
		coord.Close()
	})
	return tc
}

// submit posts a spec through the coordinator and decodes the wrapper.
func (tc *testCluster) submit(t *testing.T, spec fdtd.Spec) (*ClusterResponse, *serve.JobResult) {
	t.Helper()
	return tc.submitRequest(t, serve.JobRequest{Spec: &spec})
}

// submitRequest posts req through the coordinator and decodes the
// wrapper.
func (tc *testCluster) submitRequest(t *testing.T, req serve.JobRequest) (*ClusterResponse, *serve.JobResult) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(tc.front.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("coordinator status %d: %s", resp.StatusCode, raw)
	}
	var cr ClusterResponse
	if err := json.Unmarshal(raw, &cr); err != nil {
		t.Fatalf("decode wrapper: %v (%s)", err, raw)
	}
	var jr serve.JobResult
	if err := json.Unmarshal(cr.Result, &jr); err != nil {
		t.Fatalf("decode result: %v", err)
	}
	return &cr, &jr
}

// stats fetches the coordinator's GET /v1/stats.
func (tc *testCluster) stats(t *testing.T) Stats {
	t.Helper()
	resp, err := http.Get(tc.front.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitState polls until a node reaches the wanted membership state.
func (tc *testCluster) waitState(t *testing.T, name string, want State) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for tc.coord.Membership().State(name) != want {
		if time.Now().After(deadline) {
			t.Fatalf("node %s never reached %v (now %v)", name, want, tc.coord.Membership().State(name))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// specWithPrimary finds a fast spec whose ring primary is the wanted
// node (perturbing the source delay until the fingerprint lands there).
func (tc *testCluster) specWithPrimary(t *testing.T, name string, from int) (fdtd.Spec, int) {
	t.Helper()
	ring := tc.coord.Membership().Ring()
	for i := from; i < from+10000; i++ {
		spec := uniqueSpec(i)
		if ring.Primary(spec.Fingerprint()) == name {
			return spec, i
		}
	}
	t.Fatalf("no spec found with primary %s", name)
	return fdtd.Spec{}, 0
}

func TestCoordinatorShardsAndCaches(t *testing.T) {
	tc := newTestCluster(t, "n0", "n1", "n2")
	spec, _ := tc.specWithPrimary(t, "n1", 0)

	cr, jr := tc.submit(t, spec)
	if cr.Node != "n1" || cr.Primary != "n1" || cr.Degraded {
		t.Fatalf("first submit routed to %q (primary %q, degraded %v), want n1/n1/false",
			cr.Node, cr.Primary, cr.Degraded)
	}
	if cr.Origin != "computed" {
		t.Fatalf("first submit origin %q, want computed", cr.Origin)
	}
	if jr.Fingerprint != fmt.Sprintf("%016x", spec.Fingerprint()) {
		t.Fatalf("result fingerprint %s does not match spec", jr.Fingerprint)
	}
	if len(jr.Probe) != spec.Steps {
		t.Fatalf("probe has %d samples, want %d", len(jr.Probe), spec.Steps)
	}

	// Same spec again: answered from the coordinator's cache with the
	// shard's answer, and the shard does no more work.
	jobsBefore := tc.servers["n1"].Stats()
	cr2, jr2 := tc.submit(t, spec)
	if cr2.Node != "n1" || cr2.Origin != "cache" {
		t.Fatalf("second submit node=%q origin=%q, want n1/cache", cr2.Node, cr2.Origin)
	}
	if cr2.Attempts != 0 {
		t.Fatalf("second submit made %d attempts, want 0 (a coordinator cache hit)", cr2.Attempts)
	}
	if jobsAfter := tc.servers["n1"].Stats(); jobsAfter.JobsOK != jobsBefore.JobsOK || jobsAfter.CacheHits != jobsBefore.CacheHits {
		t.Fatalf("node n1 went from %d jobs and %d cache hits to %d and %d, want unchanged",
			jobsBefore.JobsOK, jobsBefore.CacheHits, jobsAfter.JobsOK, jobsAfter.CacheHits)
	}
	if !jr.BitwiseEqual(jr2) {
		t.Fatal("cached result differs from computed result")
	}

	// A zipf-headed burst with every node healthy: the head key is
	// most of the traffic, and each request is still answered by its
	// primary, so nothing counts as degraded.
	zipf := rand.NewZipf(rand.New(rand.NewSource(5)), 1.8, 1, 7)
	for i := 0; i < 64; i++ {
		cr, _ := tc.submit(t, uniqueSpec(100+int(zipf.Uint64())))
		if cr.Node != cr.Primary || cr.Degraded {
			t.Fatalf("burst request %d served by %q (primary %q, degraded %v), want its primary",
				i, cr.Node, cr.Primary, cr.Degraded)
		}
	}
	if st := tc.stats(t); st.Degraded != 0 {
		t.Fatalf("coordinator counted %d degraded responses with every node healthy", st.Degraded)
	}
}

// TestCoordinatorDegradedFailover is the tentpole availability proof in
// miniature: kill a shard's node, and the coordinator recomputes the
// job elsewhere, flags degraded, and the answer is bitwise identical.
func TestCoordinatorDegradedFailover(t *testing.T) {
	tc := newTestCluster(t, "n0", "n1", "n2")
	spec, _ := tc.specWithPrimary(t, "n0", 0)

	// Warm answer from the healthy primary.
	cr, before := tc.submit(t, spec)
	if cr.Node != "n0" || cr.Degraded {
		t.Fatalf("warm submit node=%q degraded=%v, want n0/false", cr.Node, cr.Degraded)
	}

	// Kill the primary and wait for the membership layer to notice.
	tc.nodes["n0"].Close()
	tc.waitState(t, "n0", StateDead)

	// no_cache, so the coordinator forwards the repeat instead of
	// answering it from its cache, and the forward must fail over.
	cr2, after := tc.submitRequest(t, serve.JobRequest{Spec: &spec, NoCache: true})
	if cr2.Node == "n0" {
		t.Fatal("dead node served the request")
	}
	if !cr2.Degraded || cr2.Primary != "n0" {
		t.Fatalf("failover response degraded=%v primary=%q, want true/n0", cr2.Degraded, cr2.Primary)
	}
	if cr2.Origin != "computed" {
		t.Fatalf("failover origin %q, want computed (the fallback is cache-cold)", cr2.Origin)
	}
	// Theorem 1: the recomputation on a different node is bitwise
	// identical to the primary's answer.
	if !before.BitwiseEqual(after) {
		t.Fatalf("failover result differs bitwise: %s vs %s", before.FieldHash, after.FieldHash)
	}
	// A plain repeat while the primary is dead is a coordinator cache
	// hit: the warm answer, from the node that served it, undegraded.
	hit, hitRes := tc.submit(t, spec)
	if hit.Origin != "cache" || hit.Attempts != 0 || hit.Node != "n0" || hit.Primary != "n0" || hit.Degraded {
		t.Fatalf("plain repeat origin=%q attempts=%d node=%q primary=%q degraded=%v, want cache/0/n0/n0/false",
			hit.Origin, hit.Attempts, hit.Node, hit.Primary, hit.Degraded)
	}
	if !before.BitwiseEqual(hitRes) {
		t.Fatalf("coordinator cache hit differs bitwise: %s vs %s", before.FieldHash, hitRes.FieldHash)
	}

	// An unaffected shard still routes to its own healthy primary,
	// undegraded.
	spec2, _ := tc.specWithPrimary(t, "n2", 100)
	cr3, _ := tc.submit(t, spec2)
	if cr3.Node != "n2" || cr3.Degraded {
		t.Fatalf("unaffected shard routed to %q degraded=%v, want n2/false", cr3.Node, cr3.Degraded)
	}
}

func TestCoordinatorAllNodesDown(t *testing.T) {
	tc := newTestCluster(t, "n0", "n1")
	tc.nodes["n0"].Close()
	tc.nodes["n1"].Close()
	tc.waitState(t, "n0", StateDead)
	tc.waitState(t, "n1", StateDead)

	spec := uniqueSpec(0)
	body, _ := json.Marshal(serve.JobRequest{Spec: &spec})
	resp, err := http.Post(tc.front.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d with every node dead, want 503", resp.StatusCode)
	}
}

func TestCoordinatorRejectsBadRequests(t *testing.T) {
	tc := newTestCluster(t, "n0")
	// One byte past the bound, all of it read before the refusal, so
	// the 413 reaches the client.
	const head, tail = `{"preset":"`, `"}`
	oversized := head + strings.Repeat("x", serve.MaxRequestBytes+1-len(head)-len(tail)) + tail
	for _, bad := range []struct {
		body string
		want int
		kind string
	}{
		{`{"preset":"nope"}`, http.StatusBadRequest, "invalid"},
		{`{}`, http.StatusBadRequest, "invalid"},
		{`{"preset":"small","bogus":1}`, http.StatusBadRequest, "invalid"},
		{`not json`, http.StatusBadRequest, "invalid"},
		{`{"preset":"small"}xyz`, http.StatusBadRequest, "invalid"},
		{oversized, http.StatusRequestEntityTooLarge, "too_large"},
	} {
		resp, err := http.Post(tc.front.URL+"/v1/jobs", "application/json", strings.NewReader(bad.body))
		if err != nil {
			t.Fatal(err)
		}
		var e struct{ Kind string }
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != bad.want || e.Kind != bad.kind {
			t.Fatalf("body %.40q: %d %q, want %d %q (rejected locally, not forwarded)", bad.body, resp.StatusCode, e.Kind, bad.want, bad.kind)
		}
	}
	if got := tc.coord.rejected.Load(); got != 6 {
		t.Fatalf("rejected counter %d, want 6", got)
	}
	if st := tc.servers["n0"].Stats(); st.JobsOK+st.RejectedInvalid != 0 {
		t.Fatalf("node saw %d jobs and %d invalid requests, want none forwarded", st.JobsOK, st.RejectedInvalid)
	}
	resp, err := http.Get(tc.front.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/jobs status %d, want 405", resp.StatusCode)
	}
}

// TestCoordinator429Propagation: when every candidate is shedding load
// past the retry budget, the coordinator answers 429 with a
// Retry-After of its own instead of 500ing.
func TestCoordinator429Propagation(t *testing.T) {
	shed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			fmt.Fprintln(w, "ok")
			return
		}
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer shed.Close()
	coord, err := New(Config{
		Nodes:  []Node{{Name: "n0", URL: shed.URL}},
		Member: MemberConfig{ProbeInterval: 10 * time.Millisecond},
		Client: client.Policy{
			MaxAttempts:   2,
			BaseBackoff:   time.Millisecond,
			MaxBackoff:    2 * time.Millisecond,
			MaxRetryAfter: 10 * time.Millisecond,
		},
		Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	front := httptest.NewServer(coord.Handler())
	defer front.Close()

	spec := uniqueSpec(0)
	body, _ := json.Marshal(serve.JobRequest{Spec: &spec})
	resp, err := http.Post(front.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 propagated", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
}

// TestCoordinatorPassthroughNodeError: a node's final 504 verdict (job
// deadline) reaches the caller verbatim rather than triggering retries.
func TestCoordinatorPassthroughNodeError(t *testing.T) {
	var hits int
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			fmt.Fprintln(w, "ok")
			return
		}
		hits++
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusGatewayTimeout)
		fmt.Fprint(w, `{"kind":"timeout","error":"job deadline"}`)
	}))
	defer node.Close()
	coord, err := New(Config{
		Nodes:  []Node{{Name: "n0", URL: node.URL}},
		Member: MemberConfig{ProbeInterval: 10 * time.Millisecond},
		Client: client.Policy{MaxAttempts: 4, BaseBackoff: time.Millisecond},
		Seed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	front := httptest.NewServer(coord.Handler())
	defer front.Close()

	spec := uniqueSpec(0)
	body, _ := json.Marshal(serve.JobRequest{Spec: &spec})
	resp, err := http.Post(front.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusGatewayTimeout || hits != 1 {
		t.Fatalf("status %d after %d node hits, want a single 504 passthrough", resp.StatusCode, hits)
	}
	var er struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(raw, &er); err != nil || er.Kind != "timeout" {
		t.Fatalf("passthrough body %s", raw)
	}
}

func TestCoordinatorStatsAndNodes(t *testing.T) {
	tc := newTestCluster(t, "n0", "n1")
	spec := uniqueSpec(0)
	tc.submit(t, spec)

	st := tc.stats(t)
	if st.Jobs != 1 || st.Forwarded != 1 || len(st.Nodes) != 2 {
		t.Fatalf("stats %+v, want jobs=1 forwarded=1 with 2 nodes", st)
	}
	served := st.Nodes[0].Served + st.Nodes[1].Served
	if served != 1 {
		t.Fatalf("served counters sum to %d, want 1", served)
	}

	nresp, err := http.Get(tc.front.URL + "/v1/nodes")
	if err != nil {
		t.Fatal(err)
	}
	defer nresp.Body.Close()
	var nodes []NodeStatus
	if err := json.NewDecoder(nresp.Body).Decode(&nodes); err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 2 {
		t.Fatalf("/v1/nodes returned %d rows, want 2", len(nodes))
	}
}

// TestClusterResponseBytesMatchEncoder: the coordinator splices the
// node's result into its body instead of re-encoding it.  The body must
// still be exactly what json.Encoder writes for the ClusterResponse it
// decodes to, and its result exactly the bytes the node itself answers
// with.
func TestClusterResponseBytesMatchEncoder(t *testing.T) {
	tc := newTestCluster(t, "n0")
	// White space in the request: the coordinator forwards the bytes it
	// read, and the node decodes them as the coordinator did.
	const req = "{ \"preset\" : \"small-a\" }\n"
	for _, origin := range []string{"computed", "cache"} {
		resp, err := http.Post(tc.front.URL+"/v1/jobs", "application/json", strings.NewReader(req))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var cr ClusterResponse
		if err := json.Unmarshal(body, &cr); err != nil {
			t.Fatalf("decode %s: %v", body, err)
		}
		var want bytes.Buffer
		json.NewEncoder(&want).Encode(cr)
		if !bytes.Equal(body, want.Bytes()) {
			t.Fatalf("%s: body differs from the encoder's output\n got %s\nwant %s", origin, body, want.Bytes())
		}
		if cr.Origin != origin {
			t.Fatalf("origin %q, want %q", cr.Origin, origin)
		}
		// A direct POST to the node is a cache hit, which writes the
		// result's one stored encoding.
		nresp, err := http.Post(tc.nodes["n0"].URL+"/v1/jobs", "application/json", strings.NewReader(req))
		if err != nil {
			t.Fatal(err)
		}
		var node struct {
			Origin string          `json:"origin"`
			Result json.RawMessage `json:"result"`
		}
		err = json.NewDecoder(nresp.Body).Decode(&node)
		nresp.Body.Close()
		if err != nil || node.Origin != "cache" {
			t.Fatalf("direct node POST: origin %q, err %v; want a cache hit", node.Origin, err)
		}
		if !bytes.Equal(cr.Result, node.Result) {
			t.Fatalf("%s: result differs from the node's own bytes\n got %s\nwant %s", origin, cr.Result, node.Result)
		}
	}
}

// jobGridRequest is a POST /v1/jobs body for the 24x16x16 Version C
// job grid of the benchmark's service workloads.  A node's answer to
// it is about 5.3 KB.
func jobGridRequest(tb testing.TB) []byte {
	tb.Helper()
	spec := fdtd.SpecTable1()
	spec.NX, spec.NY, spec.NZ, spec.Steps = 24, 16, 16, 64
	spec.Source.I, spec.Source.J, spec.Source.K = 12, 8, 8
	spec.Probe = [3]int{15, 8, 8}
	spec.Objects = []fdtd.Object{
		{I0: 6, I1: 11, J0: 4, J1: 12, K0: 4, K1: 12, EpsR: 4, MuR: 1, Sigma: 0.02},
		{I0: 14, I1: 19, J0: 5, J1: 11, K0: 5, K1: 11, EpsR: 1, MuR: 2, SigmaM: 0.01},
	}
	req, err := json.Marshal(serve.JobRequest{Spec: &spec})
	if err != nil {
		tb.Fatal(err)
	}
	return req
}

// jobGridAnswer returns jobGridRequest and the 200 body a node answers
// it with.
func jobGridAnswer(tb testing.TB) (req, body []byte) {
	tb.Helper()
	req = jobGridRequest(tb)
	srv := serve.New(serve.Config{P: 2, Workers: 1})
	defer srv.Shutdown(context.Background())
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(req)))
	if w.Code != http.StatusOK {
		tb.Fatalf("node status %d: %s", w.Code, w.Body)
	}
	return req, w.Body.Bytes()
}

// BenchmarkClusterBody measures the coordinator's splice of a node's
// 200 body into its own, on the body a node writes for the job grid:
// the one-pass read of the node's answer, the envelope and the copy.
func BenchmarkClusterBody(b *testing.B) {
	_, node := jobGridAnswer(b)
	meta := ClusterResponse{Node: "n1", Primary: "n1", Attempts: 1, Trace: "00000000000000ff"}
	b.SetBytes(int64(len(node)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		origin, result, err := parseNodeBody(node)
		if err != nil {
			b.Fatal(err)
		}
		meta.Origin = origin
		if _, err := spliceResult(meta, result); err != nil {
			b.Fatal(err)
		}
	}
}
