package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/fdtd"
	"repro/internal/obs"
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

// postEveryOrigin has one job answered three ways and returns what
// post returned for each, in order: computed, coalesced onto that
// computation, and from the cache.  post(i) sends the i-th request for
// the job, which s must not have computed yet.
func postEveryOrigin[T any](t *testing.T, s *Server, post func(i int) T) [3]T {
	t.Helper()
	hold := &testHold{entered: make(chan *job, 1), release: make(chan struct{})}
	s.pool.setHold(hold)
	computed, coalesced := make(chan T, 1), make(chan T, 1)
	go func() { computed <- post(0) }()
	select {
	case <-hold.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never picked up the job")
	}
	go func() { coalesced <- post(1) }()
	waitFor(t, func() bool { return s.Stats().Coalesced == 1 })
	close(hold.release)
	return [3]T{<-computed, <-coalesced, post(2)}
}

// TestResponseBytesMatchEncoder: a node writes each result's stored
// encoding instead of encoding it per response.  For every origin the
// bytes must be those json.Encoder writes for the same value, so
// clients see no difference.
func TestResponseBytesMatchEncoder(t *testing.T) {
	s := newTestServer(t, Config{P: 2, Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := `{"spec":` + specJSON(uniqueSpec(60)) + `}`
	bodies := postEveryOrigin(t, s, func(int) []byte {
		resp, body := postRaw(t, ts.URL, req)
		if resp != nil && resp.StatusCode != http.StatusOK {
			t.Errorf("POST status %d: %s", resp.StatusCode, body)
		}
		return body
	})

	origins := map[string]int{}
	for _, body := range bodies {
		origins[assertEncoderBytes[JobResponse](t, "POST /v1/jobs", body).Origin]++
	}
	if origins["computed"] != 1 || origins["coalesced"] != 1 || origins["cache"] != 1 {
		t.Fatalf("origins %v, want one each of computed, coalesced and cache", origins)
	}
}

// TestNodeAnswersAreFramed: every 200 answer a node writes — computed,
// coalesced and cache, here with a job-grid result, longer than the
// server buffers before it falls back to chunks — declares its length,
// so it crosses the hop as one framed body.
func TestNodeAnswersAreFramed(t *testing.T) {
	s := newTestServer(t, Config{P: 2, Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := `{"spec":` + specJSON(jobGridSpec()) + `}`
	type answer struct {
		resp *http.Response
		body []byte
	}
	answers := postEveryOrigin(t, s, func(int) answer {
		resp, body := postRaw(t, ts.URL, req)
		return answer{resp, body}
	})
	for i, want := range []string{"computed", "coalesced", "cache"} {
		resp, body := answers[i].resp, answers[i].body
		if resp == nil {
			continue // postRaw has reported it
		}
		if origin := resp.Header.Get("X-Archserve-Origin"); resp.StatusCode != http.StatusOK || origin != want {
			t.Fatalf("answer %d: status %d origin %q, want 200 %q", i, resp.StatusCode, origin, want)
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 || len(body) < 4096 {
			t.Fatalf("%s: %d-byte body with Content-Length %d and Transfer-Encoding %v, want a job-grid body framed by its length",
				want, len(body), resp.ContentLength, resp.TransferEncoding)
		}
	}
}

// TestNodeBodiesTakeOnePass: every 200 body a node writes — computed,
// coalesced and cache, here with a job-grid result and a trace id — is
// read by ParseJobResponse's one pass, already in encoder form, with
// the origin and the result json.Unmarshal finds.  The coordinator
// then never falls back to encoding/json on a node's answer.
func TestNodeBodiesTakeOnePass(t *testing.T) {
	s := newTestServer(t, Config{P: 2, Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := jobGridSpec()
	req := `{"spec":` + specJSON(spec) + `}`
	post := func(trace string) []byte {
		r, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(req))
		if err != nil {
			t.Error(err)
			return nil
		}
		r.Header.Set(obs.TraceHeader, trace)
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Error(err)
			return nil
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Errorf("POST status %d, err %v: %s", resp.StatusCode, err, body)
		}
		return body
	}
	bodies := postEveryOrigin(t, s, func(i int) []byte { return post(fmt.Sprintf("00000000000000a%d", i+1)) })

	origins := map[string]int{}
	for _, body := range bodies {
		origin, result, canonical, ok := ParseJobResponse(body)
		if !ok || !canonical {
			t.Fatalf("node body took the fallback (ok %v, canonical %v): %s", ok, canonical, body)
		}
		var node struct {
			Origin string          `json:"origin"`
			Result json.RawMessage `json:"result"`
			Trace  string          `json:"trace"`
		}
		if err := json.Unmarshal(body, &node); err != nil {
			t.Fatalf("decode %s: %v", body, err)
		}
		if origin != node.Origin || !bytes.Equal(result, node.Result) {
			t.Fatalf("one pass read origin %q and result %s; json.Unmarshal %q and %s", origin, result, node.Origin, node.Result)
		}
		if !strings.HasPrefix(node.Trace, "00000000000000a") || len(result) < 4000 {
			t.Fatalf("trace %q and a %d-byte result, want a propagated trace id and a job-grid result", node.Trace, len(result))
		}
		origins[origin]++
	}
	if origins["computed"] != 1 || origins["coalesced"] != 1 || origins["cache"] != 1 {
		t.Fatalf("origins %v, want one each of computed, coalesced and cache", origins)
	}
}

// TestParseJobResponseShape: the one pass reads the exact shape a node
// writes and hands every other body to json.Unmarshal, valid or not.
func TestParseJobResponseShape(t *testing.T) {
	node := func(origin, result string) string {
		return `{"origin":"` + origin + `","result":` + result + `,"trace":"00000000000000ff"}` + "\n"
	}
	for _, c := range []struct {
		body      string
		ok, canon bool
	}{
		{node("cache", `{"p":[0,-1.5e-300,2E+21],"s":"a b","t":true,"f":false,"n":null,"o":{}}`), true, true},
		{node("cache", `[[[[[[[[1]]]]]]]]`), true, true},
		{node("cache", `{"a<b":"c&d>"}`), true, false},
		{node(`ca\u0063he`, `1`), false, false},
		{node("cach\u00e9", `1`), false, false},
		{node("cache", `"a\"b"`), false, false},
		{node("cache", "\"\x7f\""), false, false},
		{node("cache", `[1, 2]`), false, false},
		{node("cache", `[[[[[[[[[1]]]]]]]]]`), false, false},
		{node("cache", `01`), false, false},
		{node("cache", `1.`), false, false},
		{node("cache", `[1,]`), false, false},
		{`{"Origin":"cache","result":1,"trace":"ff"}` + "\n", false, false},
		{`{"result":1,"origin":"cache","trace":"ff"}` + "\n", false, false},
		{`{"origin":"cache","result":1}` + "\n", false, false},
		{`{"origin":"cache","result":1,"trace":"ff","x":2}` + "\n", false, false},
		{node("cache", `1`) + "\n", false, false},
		{strings.TrimSuffix(node("cache", `1`), "\n"), false, false},
	} {
		origin, result, canon, ok := ParseJobResponse([]byte(c.body))
		if ok != c.ok || canon != c.canon {
			t.Fatalf("%q: ok %v canonical %v, want %v %v", c.body, ok, canon, c.ok, c.canon)
		}
		if !ok {
			continue
		}
		var v struct {
			Origin string          `json:"origin"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal([]byte(c.body), &v); err != nil || v.Origin != origin || string(v.Result) != string(result) {
			t.Fatalf("%q: one pass read %q %s; json.Unmarshal %q %s (%v)", c.body, origin, result, v.Origin, v.Result, err)
		}
	}
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
