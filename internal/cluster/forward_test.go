package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
)

// forwardPair is a coordinator in front of one node, each on a
// loopback listener of its own.  The coordinator's probe is stubbed,
// so every connection the node accepts is one a forward opened.
type forwardPair struct {
	coord *Coordinator
	front *httptest.Server
	node  string       // the node's base URL
	conns atomic.Int64 // connections the node has accepted
}

func newForwardPair(tb testing.TB, node http.Handler) *forwardPair {
	tb.Helper()
	fp := &forwardPair{}
	ns := httptest.NewUnstartedServer(node)
	ns.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			fp.conns.Add(1)
		}
	}
	ns.Start()
	tb.Cleanup(ns.Close)
	fp.node = ns.URL
	coord, err := New(Config{
		Nodes: []Node{{Name: "n0", URL: ns.URL}},
		Probe: func(Node) (float64, error) { return 0, nil },
		Seed:  1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	fp.coord = coord
	fp.front = httptest.NewServer(coord.Handler())
	tb.Cleanup(func() {
		fp.front.Close()
		coord.Close()
	})
	return fp
}

// post sends body to the coordinator and reads its whole answer.
func (fp *forwardPair) post(tb testing.TB, body []byte) (*http.Response, []byte) {
	tb.Helper()
	resp, err := http.Post(fp.front.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		tb.Fatal(err)
	}
	return resp, raw
}

// newCachedPair is a forwardPair whose node is a real serve.Server
// with the job grid's answer already in its cache.  It returns the job
// grid's request body too.  With forward set, the coordinator holds no
// result cache, so every request is forwarded and answered from the
// node's; otherwise repeats are answered by the coordinator.
func newCachedPair(tb testing.TB, forward bool) (*forwardPair, []byte) {
	tb.Helper()
	s := serve.New(serve.Config{P: 2, Workers: 1})
	tb.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	fp := newForwardPair(tb, s.Handler())
	if forward {
		fp.coord.results = nil
	}
	req := jobGridRequest(tb)
	if resp, body := fp.post(tb, req); resp.StatusCode != http.StatusOK {
		tb.Fatalf("warm-up status %d: %s", resp.StatusCode, body)
	}
	return fp, req
}

// framed reports whether an answer declared its length instead of
// coming in chunks.
func framed(resp *http.Response, body []byte) bool {
	return resp.ContentLength == int64(len(body)) && len(resp.TransferEncoding) == 0
}

// TestForwardReusesConnections: sequential cache hits through the
// coordinator all ride one keep-alive connection to the node.  The
// client must read each node answer through to EOF; a read that stops
// at the declared length and closes the body early would close the
// connection each time.
func TestForwardReusesConnections(t *testing.T) {
	fp, req := newCachedPair(t, true)
	const n = 50
	for i := 0; i < n; i++ {
		if resp, body := fp.post(t, req); resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"origin":"cache"`)) {
			t.Fatalf("forward %d: status %d, want a cache hit: %.200s", i, resp.StatusCode, body)
		}
	}
	if got := fp.conns.Load(); got != 1 {
		t.Fatalf("node accepted %d connections over %d sequential forwards, want 1", got, n+1)
	}
}

// TestCoordinatorAnswersAreFramed: the coordinator declares the length
// of its 200 answer, forwarded or from its cache, and of a node's error
// answer it passes through, all here longer than the server buffers
// before it falls back to chunks.
func TestCoordinatorAnswersAreFramed(t *testing.T) {
	for _, forward := range []bool{true, false} {
		fp, req := newCachedPair(t, forward)
		resp, body := fp.post(t, req)
		if resp.StatusCode != http.StatusOK || !framed(resp, body) || len(body) < 4096 {
			t.Fatalf("200 (forwarded %v): %d-byte body with Content-Length %d and Transfer-Encoding %v, want a job-grid answer framed by its length",
				forward, len(body), resp.ContentLength, resp.TransferEncoding)
		}
		if hit := bytes.Contains(body, []byte(`"attempts":0`)); hit == forward {
			t.Fatalf("forwarded %v, yet the answer's attempts say otherwise: %.200s", forward, body)
		}
	}

	nodeErr := `{"kind":"invalid","error":"` + strings.Repeat("x", 5000) + `"}` + "\n"
	fp := newForwardPair(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		io.WriteString(w, nodeErr)
	}))
	resp, body := fp.post(t, jobGridRequest(t))
	if resp.StatusCode != http.StatusBadRequest || string(body) != nodeErr || !framed(resp, body) {
		t.Fatalf("pass-through: status %d, %d-byte body with Content-Length %d and Transfer-Encoding %v, want the node's 400 verbatim and framed",
			resp.StatusCode, len(body), resp.ContentLength, resp.TransferEncoding)
	}
}

// TestChunkedNodeBodyIsSpliced: a node that sends its answer in chunks
// without a length, as nodes did before they framed it, is still read
// in full and spliced byte for byte.
func TestChunkedNodeBodyIsSpliced(t *testing.T) {
	req, nodeBody := jobGridAnswer(t)
	fp := newForwardPair(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		half := len(nodeBody) / 2
		w.Write(nodeBody[:half])
		w.(http.Flusher).Flush() // sends the header without a length
		w.Write(nodeBody[half:])
	}))
	resp, body := fp.post(t, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var cr ClusterResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatalf("decode %s: %v", body, err)
	}
	_, result, err := parseNodeBody(nodeBody)
	if err != nil {
		t.Fatal(err)
	}
	want, err := spliceResult(cr, result)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) || cr.Origin != "computed" {
		t.Fatalf("origin %q; answer differs from the node body spliced\n got %s\nwant %s", cr.Origin, body, want)
	}

	// The fake node's answer is chunked indeed.
	direct, err := http.Post(fp.node+"/v1/jobs", "application/json", bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Body.Close()
	if direct.ContentLength != -1 || len(direct.TransferEncoding) != 1 || direct.TransferEncoding[0] != "chunked" {
		t.Fatalf("fake node answered with Content-Length %d and Transfer-Encoding %v, want chunked", direct.ContentLength, direct.TransferEncoding)
	}
}

// BenchmarkForwardHit measures one cache hit through both hops: a POST
// of the job grid to a coordinator without a result cache, forwarded
// over loopback to its node, answered from the node's cache and
// spliced into the coordinator's answer.  B/op and allocs/op count the
// whole process: the benchmark's client, the coordinator and the node.
func BenchmarkForwardHit(b *testing.B) {
	fp, req := newCachedPair(b, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if resp, body := fp.post(b, req); resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	}
}

// BenchmarkCoordinatorHit measures one hit in the coordinator's result
// cache: a POST of the job grid to the coordinator, answered from the
// node answer it stored, with no forward.
func BenchmarkCoordinatorHit(b *testing.B) {
	fp, req := newCachedPair(b, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if resp, body := fp.post(b, req); resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	}
}
