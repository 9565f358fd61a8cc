package client

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fastPolicy keeps test sleeps tiny.
func fastPolicy(attempts int) Policy {
	return Policy{
		MaxAttempts:       attempts,
		PerAttemptTimeout: 2 * time.Second,
		BaseBackoff:       time.Millisecond,
		MaxBackoff:        5 * time.Millisecond,
		MaxRetryAfter:     20 * time.Millisecond,
	}
}

func statusNode(t *testing.T, status int, body string, hdr map[string]string) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		for k, v := range hdr {
			w.Header().Set(k, v)
		}
		w.WriteHeader(status)
		w.Write([]byte(body))
	}))
	t.Cleanup(srv.Close)
	return srv, &hits
}

func TestFirstNodeSuccess(t *testing.T) {
	srv, hits := statusNode(t, http.StatusOK, `{"ok":true}`, nil)
	c := New(fastPolicy(4), 1)
	defer c.Close()
	res, err := c.PostJSON(context.Background(), []string{srv.URL}, "/v1/jobs", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != 200 || string(res.Body) != `{"ok":true}` {
		t.Fatalf("result %d %q", res.Status, res.Body)
	}
	if res.Attempts != 1 || res.Failovers != 0 || hits.Load() != 1 {
		t.Fatalf("attempts=%d failovers=%d hits=%d, want 1/0/1", res.Attempts, res.Failovers, hits.Load())
	}
}

func TestFailoverOn5xx(t *testing.T) {
	bad, badHits := statusNode(t, http.StatusInternalServerError, "boom", nil)
	good, _ := statusNode(t, http.StatusOK, "fine", nil)
	c := New(fastPolicy(4), 1)
	defer c.Close()
	res, err := c.PostJSON(context.Background(), []string{bad.URL, good.URL}, "/", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Node != good.URL || res.Status != 200 {
		t.Fatalf("served by %q status %d, want second node 200", res.Node, res.Status)
	}
	if res.Attempts != 2 || res.Failovers != 1 || badHits.Load() != 1 {
		t.Fatalf("attempts=%d failovers=%d badHits=%d, want 2/1/1", res.Attempts, res.Failovers, badHits.Load())
	}
}

func TestFailoverOnTransportError(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // connection refused from now on
	good, _ := statusNode(t, http.StatusOK, "fine", nil)
	c := New(fastPolicy(4), 1)
	defer c.Close()
	res, err := c.PostJSON(context.Background(), []string{deadURL, good.URL}, "/", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Node != good.URL {
		t.Fatalf("served by %q, want the live node", res.Node)
	}
}

// TestRetry429HonoursRetryAfter: a node shedding load is retried after
// its (capped) hint, and the eventual success is reported with the 429
// count.
func TestRetry429HonoursRetryAfter(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1") // capped to MaxRetryAfter=20ms
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.Write([]byte("ok"))
	}))
	defer srv.Close()
	c := New(fastPolicy(4), 1)
	defer c.Close()
	start := time.Now()
	res, err := c.PostJSON(context.Background(), []string{srv.URL}, "/", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Retried429 != 2 || res.Attempts != 3 || res.Backoffs != 2 {
		t.Fatalf("retried429=%d attempts=%d backoffs=%d, want 2/3/2", res.Retried429, res.Attempts, res.Backoffs)
	}
	// Two capped Retry-After sleeps of 20ms each must have elapsed.
	if el := time.Since(start); el < 40*time.Millisecond {
		t.Fatalf("finished in %v, expected >= 40ms of Retry-After sleeps", el)
	}
	// The 1s header must have been capped, not honoured literally.
	if el := time.Since(start); el > time.Second {
		t.Fatalf("finished in %v: Retry-After cap not applied", el)
	}
}

func TestExhaustedBudget(t *testing.T) {
	srv, hits := statusNode(t, http.StatusInternalServerError, "boom", nil)
	c := New(fastPolicy(3), 1)
	defer c.Close()
	_, err := c.PostJSON(context.Background(), []string{srv.URL}, "/", nil)
	x, ok := AsExhausted(err)
	if !ok {
		t.Fatalf("error %v, want ExhaustedError", err)
	}
	if x.Attempts != 3 || x.LastStatus != 500 || hits.Load() != 3 {
		t.Fatalf("attempts=%d lastStatus=%d hits=%d, want 3/500/3", x.Attempts, x.LastStatus, hits.Load())
	}
}

// TestExhaustedAll429 reports the backpressure class and hint so the
// coordinator can propagate a 429 of its own.
func TestExhaustedAll429(t *testing.T) {
	srv, _ := statusNode(t, http.StatusTooManyRequests, "", map[string]string{"Retry-After": "1"})
	c := New(fastPolicy(2), 1)
	defer c.Close()
	_, err := c.PostJSON(context.Background(), []string{srv.URL}, "/", nil)
	x, ok := AsExhausted(err)
	if !ok {
		t.Fatalf("error %v, want ExhaustedError", err)
	}
	if x.LastStatus != http.StatusTooManyRequests {
		t.Fatalf("last status %d, want 429", x.LastStatus)
	}
	if x.RetryAfter <= 0 || x.RetryAfter > 20*time.Millisecond {
		t.Fatalf("retry-after hint %v, want (0, 20ms]", x.RetryAfter)
	}
}

// TestFinalStatusPassthrough: a 400 is the node's final verdict, not a
// reason to retry.
func TestFinalStatusPassthrough(t *testing.T) {
	srv, hits := statusNode(t, http.StatusBadRequest, `{"kind":"invalid"}`, nil)
	c := New(fastPolicy(4), 1)
	defer c.Close()
	res, err := c.PostJSON(context.Background(), []string{srv.URL}, "/", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != 400 || hits.Load() != 1 {
		t.Fatalf("status=%d hits=%d, want a single 400 passthrough", res.Status, hits.Load())
	}
}

func TestContextCancelStopsRetrying(t *testing.T) {
	srv, _ := statusNode(t, http.StatusInternalServerError, "", nil)
	pol := fastPolicy(100)
	pol.BaseBackoff = 50 * time.Millisecond
	pol.MaxBackoff = 50 * time.Millisecond
	c := New(pol, 1)
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.PostJSON(ctx, []string{srv.URL}, "/", nil)
	if err == nil {
		t.Fatal("expected error after context cancel")
	}
	if _, ok := AsExhausted(err); !ok {
		t.Fatalf("error %v, want ExhaustedError wrapping the context error", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("cancel took %v to take effect", el)
	}
}

func TestNoNodes(t *testing.T) {
	c := New(fastPolicy(2), 1)
	defer c.Close()
	if _, err := c.PostJSON(context.Background(), nil, "/", nil); err == nil {
		t.Fatal("expected error with no candidate nodes")
	}
}

// TestBackoffBounded: the full-jitter draw never exceeds the cap.
func TestBackoffBounded(t *testing.T) {
	c := New(Policy{BaseBackoff: time.Millisecond, MaxBackoff: 8 * time.Millisecond}, 42)
	for cycle := 0; cycle < 20; cycle++ {
		if d := c.backoff(cycle); d < 0 || d > 8*time.Millisecond {
			t.Fatalf("cycle %d: backoff %v outside [0, 8ms]", cycle, d)
		}
	}
}

// TestConcurrentForwardsKeepTheirConnections: rounds of concurrent
// forwards to one node open no more connections than one round sends.
// With two idle connections kept per node, as the default transport
// does, each round would close all but two of the connections it
// returns, and the next round would dial them again.
func TestConcurrentForwardsKeepTheirConnections(t *testing.T) {
	const workers, rounds = 4, 50
	var conns atomic.Int64
	// The node holds each round's forwards until all of them have
	// arrived.  In the first round that makes each forward dial a
	// connection of its own: otherwise one still waiting on its dial
	// may take a connection another forward has just returned, and the
	// dial adds one more to the pool.
	var mu sync.Mutex
	waiting, round := 0, make(chan struct{})
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		mu.Lock()
		ch := round
		if waiting++; waiting == workers {
			waiting, round = 0, make(chan struct{})
			close(ch)
		}
		mu.Unlock()
		<-ch
		w.Write([]byte(`{"ok":true}`))
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	c := New(fastPolicy(1), 1)
	defer c.Close()

	for i := 0; i < rounds; i++ {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := c.PostJSON(context.Background(), []string{srv.URL}, "/", []byte(`{}`)); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			return
		}
	}
	if got := conns.Load(); got > workers {
		t.Fatalf("%d connections for %d rounds of %d concurrent forwards, want at most %d", got, rounds, workers, workers)
	}
}

// TestOverdeclaredBodyFailsOver: a node that declares a far longer
// body than it sends fails over like any body cut short, and the
// client reserves at most maxSizedRead for it, not the declared size.
func TestOverdeclaredBodyFailsOver(t *testing.T) {
	const declared = 64 << 20
	liar := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(declared))
		w.Write([]byte(`{"origin":`))
	}))
	defer liar.Close()
	good, _ := statusNode(t, http.StatusOK, "fine", nil)
	c := New(fastPolicy(4), 1)
	defer c.Close()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := c.PostJSON(context.Background(), []string{liar.URL, good.URL}, "/", nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Node != good.URL || res.Failovers != 1 || string(res.Body) != "fine" {
		t.Fatalf("served by %q after %d failovers: %q; want the second node after one", res.Node, res.Failovers, res.Body)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > declared/8 {
		t.Fatalf("allocated %d bytes for a body declared %d bytes long, want well under that", got, declared)
	}
}
