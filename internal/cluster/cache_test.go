package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/fdtd"
	"repro/internal/serve"
)

// jobPosts is a node handler that counts the POST /v1/jobs requests it
// is sent, each one a forward the coordinator made.
type jobPosts struct {
	h http.Handler
	n atomic.Int64
}

func (j *jobPosts) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/jobs" {
		j.n.Add(1)
	}
	j.h.ServeHTTP(w, r)
}

// scriptedNode answers every POST /v1/jobs with the status it holds,
// and a 200 with a fixed JobResponse for the spec it was sent — or,
// with foreign set, for another fingerprint.
type scriptedNode struct {
	status  atomic.Int64
	foreign atomic.Bool
}

func newScriptedNode(t *testing.T) *scriptedNode {
	t.Helper()
	n := &scriptedNode{}
	n.status.Store(http.StatusOK)
	return n
}

func (n *scriptedNode) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var req serve.JobRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	spec, _, err := serve.ResolveRequest(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	fp := spec.Fingerprint()
	if n.foreign.Load() {
		fp = ^fp
	}
	w.Header().Set("Content-Type", "application/json")
	switch status := int(n.status.Load()); status {
	case http.StatusOK:
		json.NewEncoder(w).Encode(serve.JobResponse{
			Origin: "computed",
			Result: &serve.JobResult{Fingerprint: fmt.Sprintf("%016x", fp), P: 2, Probe: []float64{0, 0.5}, FieldHash: "fedcba9876543210", Work: 64},
			Trace:  "00000000000000ff",
		})
	default:
		w.WriteHeader(status)
		fmt.Fprintf(w, `{"kind":"scripted","error":"status %d"}`+"\n", status)
	}
}

// specRequest is the POST /v1/jobs body for spec.
func specRequest(t testing.TB, spec fdtd.Spec, noCache bool) []byte {
	t.Helper()
	body, err := json.Marshal(serve.JobRequest{Spec: &spec, NoCache: noCache})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// stats fetches the coordinator's GET /v1/stats.
func (fp *forwardPair) stats(t *testing.T) Stats {
	t.Helper()
	resp, err := http.Get(fp.front.URL + "/v1/stats")
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

// decodeAnswer decodes a coordinator 200 answer.
func decodeAnswer(t *testing.T, resp *http.Response, body []byte) ClusterResponse {
	t.Helper()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var cr ClusterResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatalf("decode %s: %v", body, err)
	}
	return cr
}

// TestCoordinatorCacheAnswersRepeats: N submissions of one spec reach
// the node once.  Every repeat is a hit: origin "cache", no attempts,
// the storing node and today's primary, undegraded, framed, and the
// trace header and body agree.  The counters say the same.
func TestCoordinatorCacheAnswersRepeats(t *testing.T) {
	node := &jobPosts{h: newScriptedNode(t)}
	fp := newForwardPair(t, node)
	req := specRequest(t, uniqueSpec(0), false)
	const n = 20
	var first []byte
	for i := 0; i < n; i++ {
		resp, body := fp.post(t, req)
		cr := decodeAnswer(t, resp, body)
		if i == 0 {
			first = cr.Result
			if cr.Origin != "computed" || cr.Attempts != 1 {
				t.Fatalf("first submit origin %q attempts %d, want a forward", cr.Origin, cr.Attempts)
			}
			continue
		}
		if cr.Origin != "cache" || cr.Attempts != 0 || cr.Failovers != 0 || cr.Node != "n0" || cr.Primary != "n0" || cr.Degraded {
			t.Fatalf("repeat %d: %+v, want a coordinator cache hit", i, cr)
		}
		if !framed(resp, body) || resp.Header.Get("Content-Type") != "application/json" {
			t.Fatalf("repeat %d: Content-Length %d, Transfer-Encoding %v, Content-Type %q", i, resp.ContentLength, resp.TransferEncoding, resp.Header.Get("Content-Type"))
		}
		if got := resp.Header.Get("X-Archetype-Trace-Id"); got == "" || got != cr.Trace {
			t.Fatalf("repeat %d: trace header %q, body %q", i, got, cr.Trace)
		}
		if !bytes.Equal(cr.Result, first) {
			t.Fatalf("repeat %d: result %s, want %s", i, cr.Result, first)
		}
	}
	if got := node.n.Load(); got != 1 {
		t.Fatalf("%d submissions reached the node %d times, want once", n, got)
	}
	st := fp.stats(t)
	if st.Jobs != n || st.CacheHits != n-1 || st.Forwarded != 1 || st.Degraded != 0 || st.Nodes[0].Served != 1 {
		t.Fatalf("stats %+v, want jobs %d, cache_hits %d, forwarded 1, degraded 0, served 1", st, n, n-1)
	}
}

// TestCoordinatorCacheBypass: a no_cache request neither reads the
// cache nor fills it.
func TestCoordinatorCacheBypass(t *testing.T) {
	node := &jobPosts{h: newScriptedNode(t)}
	fp := newForwardPair(t, node)
	step := func(spec fdtd.Spec, noCache bool, wantPosts int64, wantOrigin string) {
		t.Helper()
		resp, body := fp.post(t, specRequest(t, spec, noCache))
		cr := decodeAnswer(t, resp, body)
		if got := node.n.Load(); got != wantPosts || cr.Origin != wantOrigin {
			t.Fatalf("no_cache=%v: node reached %d times, origin %q; want %d and %q", noCache, got, cr.Origin, wantPosts, wantOrigin)
		}
	}
	a, b := uniqueSpec(0), uniqueSpec(1)
	step(a, false, 1, "computed") // fills
	step(a, true, 2, "computed")  // does not read
	step(a, false, 2, "cache")
	step(b, true, 3, "computed") // does not fill
	step(b, false, 4, "computed")
	step(b, false, 4, "cache")
}

// TestCoordinatorCacheStoresOnly200: a node's 400 and 504 answers pass
// through and are never stored; the first 200 is.
func TestCoordinatorCacheStoresOnly200(t *testing.T) {
	scripted := newScriptedNode(t)
	node := &jobPosts{h: scripted}
	fp := newForwardPair(t, node)
	req := specRequest(t, uniqueSpec(0), false)
	posts := int64(0)
	for _, status := range []int{http.StatusBadRequest, http.StatusGatewayTimeout} {
		scripted.status.Store(int64(status))
		for i := 0; i < 2; i++ {
			resp, body := fp.post(t, req)
			posts++
			if resp.StatusCode != status || node.n.Load() != posts {
				t.Fatalf("node answering %d: status %d after %d node posts, want %d after %d", status, resp.StatusCode, node.n.Load(), status, posts)
			}
			if !strings.Contains(string(body), `"kind":"scripted"`) {
				t.Fatalf("node answering %d: body %s, want the node's verbatim", status, body)
			}
		}
	}
	if got := fp.coord.results.Len(); got != 0 {
		t.Fatalf("cache holds %d entries after only error answers, want 0", got)
	}
	scripted.status.Store(http.StatusOK)
	for i, want := range []string{"computed", "cache"} {
		resp, body := fp.post(t, req)
		if cr := decodeAnswer(t, resp, body); cr.Origin != want {
			t.Fatalf("200 answer %d: origin %q, want %q", i, cr.Origin, want)
		}
	}
	if got := node.n.Load(); got != posts+1 {
		t.Fatalf("node reached %d times, want %d", got, posts+1)
	}
}

// TestCoordinatorCacheStoresOnlyItsFingerprint: a 200 answer whose
// result names another fingerprint is passed on but not stored, so a
// node answering for the wrong spec cannot fill the cache.
func TestCoordinatorCacheStoresOnlyItsFingerprint(t *testing.T) {
	scripted := newScriptedNode(t)
	scripted.foreign.Store(true)
	node := &jobPosts{h: scripted}
	fp := newForwardPair(t, node)
	req := specRequest(t, uniqueSpec(0), false)
	for i := 0; i < 2; i++ {
		resp, body := fp.post(t, req)
		if cr := decodeAnswer(t, resp, body); cr.Origin != "computed" {
			t.Fatalf("foreign answer %d: origin %q, want computed", i, cr.Origin)
		}
	}
	if got, n := fp.coord.results.Len(), node.n.Load(); got != 0 || n != 2 {
		t.Fatalf("cache holds %d entries after %d foreign answers, want 0 after 2", got, n)
	}
	scripted.foreign.Store(false)
	for i, want := range []string{"computed", "cache"} {
		resp, body := fp.post(t, req)
		if cr := decodeAnswer(t, resp, body); cr.Origin != want {
			t.Fatalf("own answer %d: origin %q, want %q", i, cr.Origin, want)
		}
	}
}

// TestResultIsFor: only a result that begins with fingerprint fp, in
// the node encoder's field order, is recognised as fp's.
func TestResultIsFor(t *testing.T) {
	const fp = 0x0123456789abcdef
	for _, tc := range []struct {
		result string
		want   bool
	}{
		{`{"fingerprint":"0123456789abcdef","p":2}`, true},
		{`{"fingerprint":"0123456789abcdef"}`, true},
		{`{"fingerprint":"0123456789abcdee","p":2}`, false},
		{`{"fingerprint":"0123456789ABCDEF","p":2}`, false},
		{`{"fingerprint":"0123456789abcdef0","p":2}`, false},
		{`{"fingerprint":"0123456789abcde"}`, false},
		{`{"p":2,"fingerprint":"0123456789abcdef"}`, false},
		{`null`, false},
		{``, false},
	} {
		if got := resultIsFor([]byte(tc.result), fp); got != tc.want {
			t.Errorf("resultIsFor(%s) = %v, want %v", tc.result, got, tc.want)
		}
	}
}

// TestCoordinatorCacheEvictsLRU: past serve.DefaultCacheEntries
// fingerprints, the least recently used one is dropped, and a
// refreshed one stays.
func TestCoordinatorCacheEvictsLRU(t *testing.T) {
	node := &jobPosts{h: newScriptedNode(t)}
	fp := newForwardPair(t, node)
	const capacity = serve.DefaultCacheEntries
	submit := func(i int) string {
		t.Helper()
		resp, body := fp.post(t, specRequest(t, uniqueSpec(i), false))
		return decodeAnswer(t, resp, body).Origin
	}
	for i := 0; i < capacity; i++ {
		submit(i)
	}
	if got := node.n.Load(); got != capacity {
		t.Fatalf("%d distinct specs reached the node %d times", capacity, got)
	}
	if submit(0) != "cache" { // refresh 0; 1 is now the least recent
		t.Fatal("spec 0 not cached")
	}
	if submit(capacity) != "computed" {
		t.Fatal("a new spec was answered from the cache")
	}
	if got := fp.coord.results.Len(); got != capacity || fp.coord.results.Evicted() != 1 {
		t.Fatalf("cache holds %d entries after %d evictions, want %d after 1", got, fp.coord.results.Evicted(), capacity)
	}
	if submit(0) != "cache" || submit(capacity) != "cache" {
		t.Fatal("refreshed or newest entry evicted")
	}
	posts := node.n.Load()
	if submit(1) != "computed" || node.n.Load() != posts+1 {
		t.Fatal("least recently used spec 1 still answered from the cache")
	}
}

// TestCoordinatorCacheConcurrent: many clients submit one fingerprint
// at once, some with no_cache.  Every answer carries the same result,
// the node sees each bypass and at most one miss per client, and the
// counters add up.  Run under -race by make race.
func TestCoordinatorCacheConcurrent(t *testing.T) {
	node := &jobPosts{h: newScriptedNode(t)}
	fp := newForwardPair(t, node)
	spec := uniqueSpec(0)
	plain, bypass := specRequest(t, spec, false), specRequest(t, spec, true)
	const clients, each = 8, 25
	results := make([][]json.RawMessage, clients)
	var bypassed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				req := plain
				if (c+i)%5 == 0 {
					req = bypass
					bypassed.Add(1)
				}
				resp, err := http.Post(fp.front.URL+"/v1/jobs", "application/json", bytes.NewReader(req))
				if err != nil {
					t.Error(err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				var cr ClusterResponse
				if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &cr) != nil {
					t.Errorf("status %d: %s", resp.StatusCode, body)
					return
				}
				results[c] = append(results[c], cr.Result)
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	want := results[0][0]
	for c, rs := range results {
		for i, r := range rs {
			if !bytes.Equal(r, want) {
				t.Fatalf("client %d answer %d: result %s, want %s", c, i, r, want)
			}
		}
	}
	st := fp.stats(t)
	posts := node.n.Load()
	if st.Jobs != clients*each || st.CacheHits+st.Forwarded != st.Jobs || st.Forwarded != posts {
		t.Fatalf("stats %+v with %d node posts, want jobs %d = cache_hits + forwarded, forwarded = posts", st, posts, clients*each)
	}
	if misses := posts - bypassed.Load(); misses < 1 || misses > clients {
		t.Fatalf("%d plain submissions reached the node, want 1 to %d", misses, clients)
	}
}

// TestCoordinatorCacheHitIsTheNodeAnswer: a hit's result is byte for
// byte what the node itself answers with, and bitwise equal to a fresh
// no_cache recomputation through the coordinator.
func TestCoordinatorCacheHitIsTheNodeAnswer(t *testing.T) {
	tc := newTestCluster(t, "n0")
	spec := uniqueSpec(0)
	tc.submit(t, spec)
	hit, hitRes := tc.submit(t, spec)
	if hit.Origin != "cache" || hit.Attempts != 0 {
		t.Fatalf("repeat origin %q attempts %d, want a coordinator cache hit", hit.Origin, hit.Attempts)
	}
	resp, err := http.Post(tc.nodes["n0"].URL+"/v1/jobs", "application/json", bytes.NewReader(specRequest(t, spec, false)))
	if err != nil {
		t.Fatal(err)
	}
	var node struct {
		Origin string          `json:"origin"`
		Result json.RawMessage `json:"result"`
	}
	err = json.NewDecoder(resp.Body).Decode(&node)
	resp.Body.Close()
	if err != nil || node.Origin != "cache" {
		t.Fatalf("direct node POST: origin %q, err %v; want the node's cache hit", node.Origin, err)
	}
	if !bytes.Equal(hit.Result, node.Result) {
		t.Fatalf("hit result differs from the node's own bytes\n got %s\nwant %s", hit.Result, node.Result)
	}
	fresh, freshRes := tc.submitRequest(t, serve.JobRequest{Spec: &spec, NoCache: true})
	if fresh.Origin != "computed" || fresh.Attempts != 1 {
		t.Fatalf("no_cache submit origin %q attempts %d, want a fresh forward", fresh.Origin, fresh.Attempts)
	}
	if !hitRes.BitwiseEqual(freshRes) {
		t.Fatalf("hit %s differs bitwise from a recomputation %s", hitRes.FieldHash, freshRes.FieldHash)
	}
}

// TestCoordinatorCacheHitObserved: a hit moves archcoord_cache_hits_total
// and cache_hits in /v1/stats, and files a coordinator span, so the
// hit's trace can be fetched.
func TestCoordinatorCacheHitObserved(t *testing.T) {
	tc := newTestCluster(t, "n0")
	spec := uniqueSpec(0)
	tc.submit(t, spec)
	series := func() string {
		t.Helper()
		resp, err := http.Get(tc.front.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		for _, line := range strings.Split(string(raw), "\n") {
			if v, ok := strings.CutPrefix(line, "archcoord_cache_hits_total "); ok {
				return v
			}
		}
		t.Fatalf("no archcoord_cache_hits_total sample in\n%s", raw)
		return ""
	}
	if got := series(); got != "0" {
		t.Fatalf("archcoord_cache_hits_total %s before any hit, want 0", got)
	}
	hit, _ := tc.submit(t, spec)
	if got := series(); got != "1" {
		t.Fatalf("archcoord_cache_hits_total %s after one hit, want 1", got)
	}
	if st := tc.stats(t); st.CacheHits != 1 {
		t.Fatalf("stats cache_hits %d, want 1", st.CacheHits)
	}
	ct := fetchMergedTrace(t, tc.front.URL, hit.Trace)
	saw := false
	for _, ev := range ct.TraceEvents {
		if ev.Ph == "X" && ev.Name == "cache hit (answer of n0)" && ev.Args["trace"] == hit.Trace {
			saw = true
		}
	}
	if !saw {
		t.Fatalf("hit trace %s lacks the coordinator's cache span: %+v", hit.Trace, ct.TraceEvents)
	}
}
