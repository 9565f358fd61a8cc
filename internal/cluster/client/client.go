// Package client is the cluster coordinator's forwarding client: it
// submits a job to an ordered list of candidate archserve nodes with
// per-attempt timeouts, exponential backoff with full jitter,
// Retry-After-aware 429 handling, a bounded total retry budget, and
// failover to the next ring replica when a node is unreachable.
//
// Retrying is safe here even when an attempt's outcome is unknown — a
// node SIGKILLed mid-response, a connection reset after the request
// was written.  Archetype jobs are idempotent by Theorem 1: every
// maximal execution of a spec reaches the same bitwise-identical
// result, and the node-side fingerprint cache and request coalescing
// absorb duplicated work.  The client therefore never has to
// distinguish "failed before running" from "failed after running",
// which is exactly the distinction that makes retrying non-idempotent
// state unsafe in ordinary services.
package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Policy bounds the client's persistence.  The zero value is unusable;
// New applies defaults for unset fields.
type Policy struct {
	// MaxAttempts is the total attempt budget for one request across
	// all candidate nodes.  Default 4.
	MaxAttempts int
	// PerAttemptTimeout bounds each individual attempt (connect +
	// compute + response).  Default 60s — jobs do real work.
	PerAttemptTimeout time.Duration
	// BaseBackoff is the first full-cycle backoff; it doubles per cycle
	// up to MaxBackoff.  Defaults 25ms / 1s.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// MaxRetryAfter caps how long a 429's Retry-After hint is honoured,
	// so an overloaded node cannot park the coordinator.  Default 2s.
	MaxRetryAfter time.Duration
}

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.PerAttemptTimeout <= 0 {
		p.PerAttemptTimeout = 60 * time.Second
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 25 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = time.Second
	}
	if p.MaxRetryAfter <= 0 {
		p.MaxRetryAfter = 2 * time.Second
	}
	return p
}

// Client forwards requests under a Policy.  Safe for concurrent use.
type Client struct {
	pol Policy
	hc  *http.Client

	mu  sync.Mutex
	rng *rand.Rand
}

// New builds a client with the given policy (zero fields defaulted)
// and jitter seed.  The seed only decorrelates backoff sleeps; any
// value is correct, and tests pass a constant for reproducible traces.
func New(pol Policy, seed int64) *Client {
	return &Client{
		pol: pol.withDefaults(),
		hc:  &http.Client{Transport: newTransport()},
		rng: rand.New(rand.NewSource(seed)),
	}
}

// newTransport returns a transport of the client's own: the default
// one's settings, but no cap on a node's idle pool.  The default keeps
// two idle connections per host, so at three or more concurrent
// forwards to one node it closes each connection returned while two
// are idle, and a later forward dials again.  Here every returned
// connection stays.  One is dialled only when none is idle, so a
// node's pool follows the peak of concurrent forwards to it, and an
// unused connection still closes after IdleConnTimeout.
func newTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = 0 // no limit across nodes
	t.MaxIdleConnsPerHost = math.MaxInt
	return t
}

// Close releases the client's idle connections.
func (c *Client) Close() { c.hc.CloseIdleConnections() }

// Result is one successfully transported response (any HTTP status the
// client considers final, including pass-through errors like 400).
type Result struct {
	// Node is the base URL that produced the response.
	Node string
	// Status and Body are the node's verbatim response.
	Status int
	Body   []byte
	Header http.Header
	// Attempts is how many attempts the request consumed (>= 1);
	// Failovers counts node switches, Retried429 counts 429 responses
	// absorbed, Backoffs counts full-cycle sleeps.
	Attempts   int
	Failovers  int
	Retried429 int
	Backoffs   int
}

// ExhaustedError is the typed failure of a request that used up its
// whole attempt budget without reaching a final response.
type ExhaustedError struct {
	Attempts int
	// LastStatus is the last HTTP status observed (0 when the last
	// failure was transport-level).  LastStatus == 429 means every
	// candidate was shedding load — the caller should propagate the
	// backpressure, using RetryAfter as the hint.
	LastStatus int
	RetryAfter time.Duration
	Last       error
}

// Error implements error.
func (e *ExhaustedError) Error() string {
	return fmt.Sprintf("cluster client: retry budget exhausted after %d attempts: %v", e.Attempts, e.Last)
}

// Unwrap exposes the last attempt's failure.
func (e *ExhaustedError) Unwrap() error { return e.Last }

// AsExhausted reports whether err wraps an *ExhaustedError.
func AsExhausted(err error) (*ExhaustedError, bool) {
	var x *ExhaustedError
	if errors.As(err, &x) {
		return x, true
	}
	return nil, false
}

// retryable reports whether an HTTP status is worth another attempt:
// 429 (the node is shedding load), 503 (draining) and 5xx generally.
// Everything else — success, 400 invalid spec, 504 job deadline (the
// job's own clock ran out; another node would hit the same deadline) —
// is a final answer the caller passes through.
func retryable(status int) bool {
	if status == http.StatusGatewayTimeout {
		return false
	}
	return status == http.StatusTooManyRequests || status >= 500
}

// backoff returns the full-jitter sleep for the given cycle: a uniform
// draw from [0, min(MaxBackoff, BaseBackoff<<cycle)].  Full jitter
// (rather than jittering around the midpoint) spreads simultaneous
// retriers across the whole window, which minimises collision when
// many coordinator requests failed over together.
func (c *Client) backoff(cycle int) time.Duration {
	max := c.pol.BaseBackoff << cycle
	if max > c.pol.MaxBackoff || max <= 0 {
		max = c.pol.MaxBackoff
	}
	c.mu.Lock()
	d := time.Duration(c.rng.Int63n(int64(max) + 1))
	c.mu.Unlock()
	return d
}

// parseRetryAfter reads a Retry-After header (delta-seconds form),
// capped by the policy.
func (c *Client) parseRetryAfter(h http.Header) time.Duration {
	secs, err := strconv.Atoi(h.Get("Retry-After"))
	if err != nil || secs <= 0 {
		return 0
	}
	d := time.Duration(secs) * time.Second
	if d > c.pol.MaxRetryAfter {
		d = c.pol.MaxRetryAfter
	}
	return d
}

// PostJSON posts body to path on each candidate node in order until a
// final response arrives or the attempt budget is spent.  Transport
// errors and retryable statuses fail over to the next node
// immediately; after a full cycle of candidates has failed, the client
// sleeps (full-jitter exponential backoff, or the largest capped
// Retry-After seen in the cycle if greater) before going around again.
// Optional extra headers (e.g. the trace-context header) are applied to
// every attempt, so a failover carries the same correlation id.
func (c *Client) PostJSON(ctx context.Context, nodes []string, path string, body []byte, hdr ...http.Header) (*Result, error) {
	if len(nodes) == 0 {
		return nil, errors.New("cluster client: no candidate nodes")
	}
	res := &Result{}
	var last error
	var lastStatus int
	var cycleRetryAfter, lastRetryAfter time.Duration
	cycle := 0
	for attempt := 1; ; attempt++ {
		res.Attempts = attempt
		node := nodes[(attempt-1)%len(nodes)]
		if attempt > 1 {
			res.Failovers++
		}
		status, respHdr, respBody, err := c.post(ctx, node, path, body, hdr)
		switch {
		case err != nil:
			last = fmt.Errorf("node %s: %w", node, err)
			lastStatus = 0
		case retryable(status):
			last = fmt.Errorf("node %s: status %d", node, status)
			lastStatus = status
			if status == http.StatusTooManyRequests {
				res.Retried429++
				if ra := c.parseRetryAfter(respHdr); ra > cycleRetryAfter {
					cycleRetryAfter = ra
				}
			}
		default:
			res.Node = node
			res.Status = status
			res.Header = respHdr
			res.Body = respBody
			return res, nil
		}
		if ctx.Err() != nil {
			return nil, &ExhaustedError{Attempts: attempt, LastStatus: lastStatus, RetryAfter: lastRetryAfter, Last: ctx.Err()}
		}
		if attempt >= c.pol.MaxAttempts {
			if cycleRetryAfter > lastRetryAfter {
				lastRetryAfter = cycleRetryAfter
			}
			return nil, &ExhaustedError{Attempts: attempt, LastStatus: lastStatus, RetryAfter: lastRetryAfter, Last: last}
		}
		if attempt%len(nodes) == 0 {
			// Every candidate failed this cycle: wait before the next
			// round instead of hammering a struggling cluster.
			d := c.backoff(cycle)
			cycle++
			if cycleRetryAfter > d {
				d = cycleRetryAfter
			}
			lastRetryAfter = cycleRetryAfter
			cycleRetryAfter = 0
			res.Backoffs++
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return nil, &ExhaustedError{Attempts: attempt, LastStatus: lastStatus, RetryAfter: lastRetryAfter, Last: ctx.Err()}
			}
		}
	}
}

// post runs one attempt with its own deadline.
func (c *Client) post(ctx context.Context, node, path string, body []byte, extra []http.Header) (int, http.Header, []byte, error) {
	actx, cancel := context.WithTimeout(ctx, c.pol.PerAttemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, node+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	for _, h := range extra {
		for k, vs := range h {
			for _, v := range vs {
				req.Header.Add(k, v)
			}
		}
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	respBody, err := readBody(resp)
	if err != nil {
		// The response died mid-body (e.g. the node was killed while
		// streaming): treat like a transport failure so the request
		// fails over — safe, because the job is idempotent (Theorem 1).
		return 0, nil, nil, fmt.Errorf("reading response: %w", err)
	}
	return resp.StatusCode, resp.Header, respBody, nil
}

// GetJSON performs one plain GET against a single node with the
// per-attempt timeout and no retrying — the shape of best-effort
// sidecar fetches like the coordinator's trace fan-out, where a missing
// response degrades the answer instead of failing it.
func (c *Client) GetJSON(ctx context.Context, node, path string) (int, []byte, error) {
	actx, cancel := context.WithTimeout(ctx, c.pol.PerAttemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodGet, node+path, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := readBody(resp)
	if err != nil {
		return 0, nil, fmt.Errorf("reading response: %w", err)
	}
	return resp.StatusCode, body, nil
}

// maxSizedRead caps what a declared Content-Length reserves before the
// body arrives, so a node that declares more than it sends cannot make
// the client allocate the declared size.  A longer body still reads in
// full; its buffer grows past the cap as it arrives.
const maxSizedRead = 1 << 20

// readBody reads a response body to its end.  A body of declared
// length goes into one buffer of that size, up to maxSizedRead; one of
// unknown length, such as a chunked body, goes through io.ReadAll.
// Reading on to io.EOF is what returns the connection to the idle pool.
func readBody(resp *http.Response) ([]byte, error) {
	if resp.ContentLength < 0 {
		return io.ReadAll(resp.Body)
	}
	// ReadFrom keeps MinRead bytes free for each read, the last one
	// included, so with them on top a body of the declared length
	// never moves.
	var buf bytes.Buffer
	buf.Grow(int(min(resp.ContentLength, maxSizedRead)) + bytes.MinRead)
	_, err := buf.ReadFrom(resp.Body)
	return buf.Bytes(), err
}
