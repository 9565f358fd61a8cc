package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/fdtd"
)

func postJob(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var buf strings.Builder
	dec := json.NewDecoder(resp.Body)
	dec.UseNumber()
	var raw json.RawMessage
	if err := dec.Decode(&raw); err == nil {
		buf.Write(raw)
	}
	return resp, []byte(buf.String())
}

// oversizedRequest is a well-formed job request one byte past
// MaxRequestBytes.  The server reads all of it before refusing it, so
// the connection closes with nothing unread and the 413 reaches the
// client.
func oversizedRequest() string {
	const head, tail = `{"preset":"`, `"}`
	return head + strings.Repeat("x", MaxRequestBytes+1-len(head)-len(tail)) + tail
}

func TestHTTPJobLifecycle(t *testing.T) {
	s := newTestServer(t, Config{P: 2, Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Compute, then hit the cache; the response bytes must round-trip
	// the identical result.
	resp, body := postJob(t, ts, `{"preset":"small-a"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first POST status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Archserve-Origin"); got != "computed" {
		t.Fatalf("origin header %q, want computed", got)
	}
	var first JobResponse
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatalf("decode response: %v", err)
	}

	resp, body = postJob(t, ts, `{"preset":"small-a"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached POST status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Archserve-Origin"); got != "cache" {
		t.Fatalf("origin header %q, want cache", got)
	}
	var second JobResponse
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatalf("decode cached response: %v", err)
	}
	// JSON round-trip preserves float64 bits (shortest representation),
	// so the decoded results must still compare bitwise equal.
	if !second.Result.BitwiseEqual(first.Result) {
		t.Fatalf("cached HTTP result is not bitwise identical")
	}

	// Error mapping.
	for _, tc := range []struct {
		body string
		want int
		kind string
	}{
		{`{"preset":"nope"}`, http.StatusBadRequest, "invalid"},
		{`{}`, http.StatusBadRequest, "invalid"},
		{`{"preset":"small-a","spec":{"NX":8}}`, http.StatusBadRequest, "invalid"},
		{`{"spec":{"NX":8,"NY":8,"NZ":8,"Steps":0,"DT":0.5}}`, http.StatusBadRequest, "invalid"},
		{`not json`, http.StatusBadRequest, "invalid"},
		{`{"preset":"small-a"}xyz`, http.StatusBadRequest, "invalid"},
		{oversizedRequest(), http.StatusRequestEntityTooLarge, "too_large"},
	} {
		resp, body := postJob(t, ts, tc.body)
		var e errorResponse
		json.Unmarshal(body, &e)
		if resp.StatusCode != tc.want || e.Kind != tc.kind {
			t.Fatalf("POST %.40s -> %d %q, want %d %q", tc.body, resp.StatusCode, e.Kind, tc.want, tc.kind)
		}
	}
	if resp, err := http.Get(ts.URL + "/v1/jobs"); err != nil || resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/jobs should be 405")
	}

	// Stats and metrics reflect the traffic.
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/stats: %v (%d)", err, resp.StatusCode)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	resp.Body.Close()
	if st.JobsOK != 1 || st.CacheHits != 1 {
		t.Fatalf("stats = ok %d hits %d, want 1/1", st.JobsOK, st.CacheHits)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %v", err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read metrics: %v", err)
	}
	text := string(raw)
	for _, want := range []string{
		`archserve_jobs_total{status="ok"} 1`,
		"archserve_cache_hits_total 1",
		"archserve_queue_capacity 16",
		`archserve_job_phase_seconds_total{phase="compute"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, text)
		}
	}

	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz: %v", err)
	}
}

func TestHTTPOverloadMapsTo429(t *testing.T) {
	s := newTestServer(t, Config{P: 2, Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	hold := &testHold{entered: make(chan *job, 4), release: make(chan struct{})}
	s.pool.setHold(hold)
	done := make(chan int, 4)
	go func() {
		resp, _ := postJob(t, ts, `{"spec":`+specJSON(uniqueSpec(50))+`}`)
		done <- resp.StatusCode
	}()
	select {
	case <-hold.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never picked up the job")
	}
	go func() {
		resp, _ := postJob(t, ts, `{"spec":`+specJSON(uniqueSpec(51))+`}`)
		done <- resp.StatusCode
	}()
	waitFor(t, func() bool { return s.Stats().QueueDepth == 1 })

	resp, body := postJob(t, ts, `{"spec":`+specJSON(uniqueSpec(52))+`}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload POST status %d (%s), want 429", resp.StatusCode, body)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After header %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
	var e errorResponse
	if err := json.Unmarshal(body, &e); err != nil || e.Kind != "overloaded" {
		t.Fatalf("error body %s, want kind overloaded", body)
	}

	close(hold.release)
	for i := 0; i < 2; i++ {
		if code := <-done; code != http.StatusOK {
			t.Fatalf("held request finished with %d", code)
		}
	}
}

func TestHTTPDrainingMapsTo503(t *testing.T) {
	s := New(Config{P: 2, Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	resp, body := postJob(t, ts, `{"preset":"small-a"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST while draining: %d (%s), want 503", resp.StatusCode, body)
	}
	if hresp, err := http.Get(ts.URL + "/healthz"); err != nil || hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining should be 503")
	}
}

func specJSON(s interface{ Fingerprint() uint64 }) string {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// getCacheEntry fetches GET /v1/cache/{fp} and returns status + body.
func getCacheEntry(t *testing.T, ts *httptest.Server, fp string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/cache/" + fp)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body
}

// putCacheEntry PUTs body to /v1/cache/{fp} and returns status + body.
func putCacheEntry(t *testing.T, ts *httptest.Server, fp string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/cache/"+fp, strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	rb, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, rb
}

// TestHTTPCacheTransferRoundTrip: a result computed on one node moves to
// another through GET → PUT with the body passed through verbatim, and
// the receiver then serves the job from its cache — the wire form of the
// replication/handoff primitive.
func TestHTTPCacheTransferRoundTrip(t *testing.T) {
	src := newTestServer(t, Config{P: 2, Workers: 1})
	dst := newTestServer(t, Config{P: 2, Workers: 1})
	tsSrc := httptest.NewServer(src.Handler())
	defer tsSrc.Close()
	tsDst := httptest.NewServer(dst.Handler())
	defer tsDst.Close()

	resp, body := postJob(t, tsSrc, `{"preset":"small-a"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compute status %d: %s", resp.StatusCode, body)
	}
	var jr JobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	fp := jr.Result.Fingerprint

	status, entry := getCacheEntry(t, tsSrc, fp)
	if status != http.StatusOK {
		t.Fatalf("GET cache entry status %d: %s", status, entry)
	}
	if status, rb := putCacheEntry(t, tsDst, fp, entry); status != http.StatusNoContent {
		t.Fatalf("PUT cache entry status %d: %s", status, rb)
	}

	// The receiver now serves the same bytes...
	status2, entry2 := getCacheEntry(t, tsDst, fp)
	if status2 != http.StatusOK || string(entry2) != string(entry) {
		t.Fatalf("re-exported entry differs (status %d):\n src %s\n dst %s", status2, entry, entry2)
	}
	// ...and answers the job itself as a cache hit, bitwise equal.
	resp, body = postJob(t, tsDst, `{"preset":"small-a"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("receiver submit status %d", resp.StatusCode)
	}
	var jr2 JobResponse
	if err := json.Unmarshal(body, &jr2); err != nil {
		t.Fatal(err)
	}
	if jr2.Origin != "cache" {
		t.Fatalf("receiver origin %q, want cache (imported entry)", jr2.Origin)
	}
	if !jr.Result.BitwiseEqual(jr2.Result) {
		t.Fatal("imported result not bitwise equal to the computed one")
	}

	if st := dst.Stats(); st.ReplicatedIn != 1 {
		t.Fatalf("receiver replicated_in %d, want 1", st.ReplicatedIn)
	}
	if st := src.Stats(); st.ReplicatedOut < 1 {
		t.Fatalf("source replicated_out %d, want >= 1", st.ReplicatedOut)
	}

	// The index lists the entry on both sides.
	iresp, err := http.Get(tsDst.URL + "/v1/cache")
	if err != nil {
		t.Fatal(err)
	}
	defer iresp.Body.Close()
	var idx CacheIndex
	if err := json.NewDecoder(iresp.Body).Decode(&idx); err != nil {
		t.Fatal(err)
	}
	if len(idx.Fingerprints) != 1 || idx.Fingerprints[0] != fp {
		t.Fatalf("receiver index %v, want [%s]", idx.Fingerprints, fp)
	}
}

// TestHTTPCacheEntryRejections: the admission guards — a mismatched
// fingerprint is 400 (the one corruption the cache must never accept),
// malformed paths are 400, wrong methods 405.
func TestHTTPCacheEntryRejections(t *testing.T) {
	s := newTestServer(t, Config{P: 2, Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJob(t, ts, `{"preset":"small-a"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compute status %d", resp.StatusCode)
	}
	var jr JobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	_, entry := getCacheEntry(t, ts, jr.Result.Fingerprint)

	// Same valid body, wrong path fingerprint: rejected, not admitted.
	wrong := "0000000000000001"
	if wrong == jr.Result.Fingerprint {
		wrong = "0000000000000002"
	}
	status, rb := putCacheEntry(t, ts, wrong, entry)
	if status != http.StatusBadRequest || !strings.Contains(string(rb), "fingerprint_mismatch") {
		t.Fatalf("mismatched PUT status %d body %s, want 400 fingerprint_mismatch", status, rb)
	}
	if _, ok := s.CachedResult(mustParseFP(t, wrong)); ok {
		t.Fatal("mismatched entry was admitted")
	}

	for _, fp := range []string{"zz", "123", "00000000000000000", "g000000000000000"} {
		if status, _ := getCacheEntry(t, ts, fp); status != http.StatusBadRequest {
			t.Fatalf("GET bad path %q status %d, want 400", fp, status)
		}
	}
	if status, _ := putCacheEntry(t, ts, jr.Result.Fingerprint, []byte("not json")); status != http.StatusBadRequest {
		t.Fatalf("PUT garbage body status %d, want 400", status)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/cache/"+jr.Result.Fingerprint, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusMethodNotAllowed || dresp.Header.Get("Allow") != "GET, PUT" {
		t.Fatalf("DELETE status %d Allow %q, want 405 with GET, PUT", dresp.StatusCode, dresp.Header.Get("Allow"))
	}
}

// TestHTTPCacheDisabled: with the cache off there is nothing to export
// or admit — every cache endpoint answers 409 cache_disabled.
func TestHTTPCacheDisabled(t *testing.T) {
	s := newTestServer(t, Config{P: 2, Workers: 1, CacheEntries: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if status, body := getCacheEntry(t, ts, "0000000000000001"); status != http.StatusConflict || !strings.Contains(string(body), "cache_disabled") {
		t.Fatalf("GET entry status %d body %s, want 409 cache_disabled", status, body)
	}
	if status, _ := putCacheEntry(t, ts, "0000000000000001", []byte("{}")); status != http.StatusConflict {
		t.Fatalf("PUT entry status %d, want 409", status)
	}
	iresp, err := http.Get(ts.URL + "/v1/cache")
	if err != nil {
		t.Fatal(err)
	}
	iresp.Body.Close()
	if iresp.StatusCode != http.StatusConflict {
		t.Fatalf("GET index status %d, want 409", iresp.StatusCode)
	}
}

// TestHTTPCacheDrainingExportsButRefusesImports: the drain window is
// when a leaving node's cache is pulled, so GETs (entries and index)
// keep working; admission is refused with 503 — the node is leaving, a
// new entry would be stranded.
func TestHTTPCacheDrainingExportsButRefusesImports(t *testing.T) {
	s := newTestServer(t, Config{P: 2, Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJob(t, ts, `{"preset":"small-a"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compute status %d", resp.StatusCode)
	}
	var jr JobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	fp := jr.Result.Fingerprint
	_, entry := getCacheEntry(t, ts, fp)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	if status, _ := getCacheEntry(t, ts, fp); status != http.StatusOK {
		t.Fatalf("draining GET entry status %d, want 200 (export window)", status)
	}
	iresp, err := http.Get(ts.URL + "/v1/cache")
	if err != nil {
		t.Fatal(err)
	}
	iresp.Body.Close()
	if iresp.StatusCode != http.StatusOK {
		t.Fatalf("draining GET index status %d, want 200", iresp.StatusCode)
	}
	if status, rb := putCacheEntry(t, ts, fp, entry); status != http.StatusServiceUnavailable || !strings.Contains(string(rb), "draining") {
		t.Fatalf("draining PUT status %d body %s, want 503 draining", status, rb)
	}
}

func mustParseFP(t *testing.T, s string) uint64 {
	t.Helper()
	fp, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// postRaw POSTs body to /v1/jobs and returns the response bytes as
// sent.
func postRaw(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Errorf("POST /v1/jobs: %v", err)
		return nil, nil
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Errorf("read response: %v", err)
	}
	return resp, raw
}

// assertEncoderBytes checks that body is exactly what json.Encoder
// writes for the value body decodes into.
func assertEncoderBytes[T any](t *testing.T, what string, body []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("%s: decode %s: %v", what, body, err)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(v); err != nil {
		t.Fatalf("%s: encode: %v", what, err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Fatalf("%s: body differs from the encoder's output\n got %s\nwant %s", what, body, want.Bytes())
	}
	return v
}

// TestResponseBytesMatchEncoder: a node writes each result's stored
// encoding instead of encoding it per response.  For every origin, and
// for a cache export, the bytes must be those json.Encoder writes for
// the same value, so clients see no difference.
func TestResponseBytesMatchEncoder(t *testing.T) {
	s := newTestServer(t, Config{P: 2, Workers: 1})
	hold := &testHold{entered: make(chan *job, 1), release: make(chan struct{})}
	s.pool.setHold(hold)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := `{"spec":` + specJSON(uniqueSpec(60)) + `}`
	bodies := make(chan []byte, 2)
	post := func() {
		resp, body := postRaw(t, ts.URL, req)
		if resp != nil && resp.StatusCode != http.StatusOK {
			t.Errorf("POST status %d: %s", resp.StatusCode, body)
		}
		bodies <- body
	}
	go post()
	select {
	case <-hold.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never picked up the job")
	}
	go post()
	waitFor(t, func() bool { return s.Stats().Coalesced == 1 })
	close(hold.release)

	origins := map[string]int{}
	var fp string
	for i := 0; i < 2; i++ {
		r := assertEncoderBytes[JobResponse](t, "POST /v1/jobs", <-bodies)
		origins[r.Origin]++
		fp = r.Result.Fingerprint
	}
	resp, body := postRaw(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached POST status %d: %s", resp.StatusCode, body)
	}
	origins[assertEncoderBytes[JobResponse](t, "POST /v1/jobs", body).Origin]++
	if origins["computed"] != 1 || origins["coalesced"] != 1 || origins["cache"] != 1 {
		t.Fatalf("origins %v, want one each of computed, coalesced and cache", origins)
	}

	status, body := getCacheEntry(t, ts, fp)
	if status != http.StatusOK {
		t.Fatalf("GET /v1/cache/%s status %d: %s", fp, status, body)
	}
	assertEncoderBytes[JobResult](t, "GET /v1/cache", body)
}

// BenchmarkJobCacheHit measures a POST /v1/jobs answered from the
// cache, end to end through the handler: decode, validate,
// fingerprint, look up, write the stored bytes.
func BenchmarkJobCacheHit(b *testing.B) {
	s := New(Config{P: 2, Workers: 1})
	defer s.Shutdown(context.Background())
	h := s.Handler()
	const body = `{"preset":"small-a"}`
	do := func() *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
		return w
	}
	if w := do(); w.Code != http.StatusOK {
		b.Fatalf("warm-up status %d: %s", w.Code, w.Body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w := do(); w.Code != http.StatusOK || w.Header().Get("X-Archserve-Origin") != "cache" {
			b.Fatalf("status %d origin %q", w.Code, w.Header().Get("X-Archserve-Origin"))
		}
	}
}

// TestUnencodableResultFailsJob: a spec whose fields turn NaN (here an
// object with zero permittivity over the probe) has a result JSON
// cannot carry.  Its job fails with a typed 500 and nothing is cached;
// it is not answered with a 200 whose body is cut short.
func TestUnencodableResultFailsJob(t *testing.T) {
	s := newTestServer(t, Config{P: 2, Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := uniqueSpec(70)
	spec.Objects = []fdtd.Object{{I0: 0, I1: spec.NX, J0: 0, J1: spec.NY, K0: 0, K1: spec.NZ, EpsR: 0, MuR: 1}}
	resp, body := postJob(t, ts, `{"spec":`+specJSON(spec)+`}`)
	var e errorResponse
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("status %d, body %q: %v", resp.StatusCode, body, err)
	}
	if resp.StatusCode != http.StatusInternalServerError || e.Kind != "internal" || !strings.Contains(e.Error, "encode result") {
		t.Fatalf("status %d %+v, want 500 internal naming the encoding", resp.StatusCode, e)
	}
	if st := s.Stats(); st.JobsFailed != 1 || st.JobsOK != 0 || st.CacheEntries != 0 {
		t.Fatalf("stats failed %d ok %d cached %d, want 1/0/0", st.JobsFailed, st.JobsOK, st.CacheEntries)
	}
}
