package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cluster/client"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Config assembles a Coordinator.
type Config struct {
	// Nodes is the cluster roster.  The set is fixed for the
	// coordinator's lifetime; nodes come and go by dying and rejoining,
	// not by reconfiguration.
	Nodes []Node
	// Member tunes probing and failure thresholds.
	Member MemberConfig
	// Client tunes the forwarding retry policy.
	Client client.Policy
	// Seed decorrelates the client's backoff jitter and the trace-id
	// mint.
	Seed int64
	// Probe overrides the HTTP health prober (tests only).
	Probe func(n Node) (float64, error)
}

// Coordinator fronts a set of archserve nodes behind the single-node
// /v1/jobs API: it fingerprints each request, routes it to the ring
// primary for that fingerprint, and fails over through the membership
// layer's candidate order when nodes are down or shedding load.
type Coordinator struct {
	member *Membership
	client *client.Client
	mint   func() obs.TraceID // per-request trace ids
	traces *obs.TraceStore    // coordinator-side service spans

	requests serve.RequestReader // POST /v1/jobs bodies, repeats decoded once

	// counters (atomic; exposed by /v1/stats)
	jobs      atomic.Int64 // requests accepted for forwarding
	forwarded atomic.Int64 // final responses obtained from a node
	degraded  atomic.Int64 // responses served off-primary
	failovers atomic.Int64 // node switches across all requests
	retried   atomic.Int64 // 429s absorbed by the client
	exhausted atomic.Int64 // requests that spent their retry budget
	rejected  atomic.Int64 // malformed requests answered locally

	// fwdLatency is the end-to-end forward-latency histogram (/metrics).
	fwdLatency obs.Histogram
}

// New builds a coordinator and starts its probe loop.  Close stops it.
func New(cfg Config) (*Coordinator, error) {
	var probe probeFn
	if cfg.Probe != nil {
		p := cfg.Probe
		probe = func(_ context.Context, n Node) (float64, error) { return p(n) }
	}
	m, err := NewMembership(cfg.Nodes, cfg.Member, probe)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		member: m,
		client: client.New(cfg.Client, cfg.Seed),
		mint:   obs.NewTraceSource(cfg.Seed),
		traces: obs.NewTraceStore(),
	}
	m.Start()
	return c, nil
}

// Close stops the probe loop and releases client connections.
func (c *Coordinator) Close() {
	c.member.Close()
	c.client.Close()
}

// Membership exposes the membership layer (tests and stats).
func (c *Coordinator) Membership() *Membership { return c.member }

// ClusterResponse is the coordinator's POST /v1/jobs success body: the
// node's JobResponse fields plus routing provenance.  Result is the
// node's JSON (json.RawMessage), spliced into the body as the node sent
// it (clusterBody), so float64 values are never re-encoded — the
// bitwise-identity guarantee survives the hop.
type ClusterResponse struct {
	Origin string          `json:"origin"`
	Result json.RawMessage `json:"result"`
	// Node served the response; Primary is the ring's first choice for
	// this fingerprint.  Degraded means Node != Primary, which happens
	// only on failover (the primary was down, suspect or shedding load):
	// the answer is still bitwise-correct (Theorem 1 — any node computes
	// the same result), only placement quality suffered, so the
	// coordinator degrades instead of failing.
	Node     string `json:"node"`
	Primary  string `json:"primary"`
	Degraded bool   `json:"degraded"`
	// Attempts/Failovers/Retried429 describe the forwarding effort.
	Attempts   int `json:"attempts"`
	Failovers  int `json:"failovers,omitempty"`
	Retried429 int `json:"retried_429,omitempty"`
	// Trace is the request's trace id, minted here (or adopted from the
	// caller's X-Archetype-Trace-Id header) and propagated to the node.
	// The merged cross-process trace is at GET /v1/jobs/{trace}/trace.
	Trace string `json:"trace,omitempty"`
}

// Stats is the coordinator's GET /v1/stats body.
type Stats struct {
	Jobs       int64        `json:"jobs"`
	Forwarded  int64        `json:"forwarded"`
	Degraded   int64        `json:"degraded"`
	Failovers  int64        `json:"failovers"`
	Retried    int64        `json:"retried_429"`
	Exhausted  int64        `json:"exhausted"`
	Rejected   int64        `json:"rejected"`
	HotJobs    int64        `json:"hot_jobs"`   // always 0; kept for the benchmark, which reads it
	P2CRoutes  int64        `json:"p2c_routes"` // always 0; kept for the benchmark, which reads it
	Replicated int64        `json:"replicated"` // always 0; kept for the benchmark, which reads it
	Nodes      []NodeStatus `json:"nodes"`
}

// Handler returns the coordinator's HTTP mux:
//
//	POST /v1/jobs              forward a job to its shard, wait for the result
//	GET  /v1/jobs/{id}/trace   merged cross-process Chrome trace for a job
//	GET  /v1/stats             coordinator counters + node states as JSON
//	GET  /v1/nodes             node states alone
//	GET  /healthz              liveness
//	GET  /metrics              Prometheus text exposition
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/jobs", c.handleJobs)
	mux.HandleFunc("/v1/jobs/", c.handleJobTrace)
	mux.HandleFunc("/v1/stats", c.handleStats)
	mux.HandleFunc("/v1/nodes", c.handleNodes)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		c.writeMetrics(w)
	})
	return mux
}

func (c *Coordinator) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "method", "use POST")
		return
	}
	body, req, err := c.requests.ReadJobRequest(w, r)
	if err != nil {
		c.rejected.Add(1)
		status, kind := serve.RequestErrorStatus(err)
		writeError(w, status, kind, err.Error())
		return
	}
	// Resolve exactly as a node would, so a preset and its expanded
	// spec fingerprint — and therefore shard — identically here and
	// there.
	spec, _, err := serve.ResolveRequest(req)
	if err != nil {
		c.rejected.Add(1)
		writeError(w, http.StatusBadRequest, "invalid", err.Error())
		return
	}
	// Trace context: this is where cluster-wide trace ids are born.
	// A caller-supplied header is adopted (so external tooling can
	// correlate its own spans); otherwise the coordinator mints one.
	trace, err := obs.ParseTraceID(r.Header.Get(obs.TraceHeader))
	if err != nil {
		c.rejected.Add(1)
		writeError(w, http.StatusBadRequest, "invalid", fmt.Sprintf("%s: %v", obs.TraceHeader, err))
		return
	}
	if trace == 0 {
		trace = c.mint()
	}
	fp := spec.Fingerprint()
	primary, cands := c.member.Route(fp)
	if len(cands) == 0 {
		writeError(w, http.StatusServiceUnavailable, "no_nodes",
			fmt.Sprintf("no live node for fingerprint %016x (primary %s is down) [trace %s]", fp, primary, trace))
		return
	}
	c.jobs.Add(1)

	urls := make([]string, len(cands))
	for i, n := range cands {
		urls[i] = n.URL
	}
	traceStr := trace.String()
	hdr := http.Header{}
	hdr.Set(obs.TraceHeader, traceStr)
	w.Header().Set(obs.TraceHeader, traceStr)
	fwdStart := time.Now()
	// In-flight accounting brackets the forward and is charged to the
	// first candidate.  A failover mid-forward shifts the load elsewhere
	// without moving the counter — an approximation that self-corrects
	// when the forward returns, and failovers are the rare path.
	c.member.addInflight(cands[0].Name, 1)
	res, err := c.client.PostJSON(r.Context(), urls, "/v1/jobs", body, hdr)
	c.member.addInflight(cands[0].Name, -1)
	if err != nil {
		c.exhausted.Add(1)
		if x, ok := client.AsExhausted(err); ok && x.LastStatus == http.StatusTooManyRequests {
			// The whole cluster is shedding load: propagate the
			// backpressure with the nodes' own hint.
			secs := int(x.RetryAfter.Round(time.Second) / time.Second)
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", fmt.Sprint(secs))
			writeError(w, http.StatusTooManyRequests, "overloaded",
				fmt.Sprintf("%v [trace %s]", err, traceStr))
			return
		}
		writeError(w, http.StatusServiceUnavailable, "unavailable",
			fmt.Sprintf("%v [trace %s]", err, traceStr))
		return
	}
	fwdEnd := time.Now()
	c.recordForward(fwdEnd.Sub(fwdStart))
	c.failovers.Add(int64(res.Failovers))
	c.retried.Add(int64(res.Retried429))

	servedName := ""
	for _, n := range cands {
		if n.URL == res.Node {
			servedName = n.Name
			break
		}
	}
	if res.Status != http.StatusOK {
		// A final node-side error (400 invalid spec, 504 job deadline):
		// pass the node's verdict through verbatim.
		if ct := res.Header.Get("Content-Type"); ct != "" {
			w.Header().Set("Content-Type", ct)
		}
		writeBody(w, res.Status, res.Body)
		return
	}
	degraded := servedName != primary
	out, err := clusterBody(res.Body, ClusterResponse{
		Node:       servedName,
		Primary:    primary,
		Degraded:   degraded,
		Attempts:   res.Attempts,
		Failovers:  res.Failovers,
		Retried429: res.Retried429,
		Trace:      traceStr,
	})
	if err != nil {
		writeError(w, http.StatusBadGateway, "bad_node_response", err.Error())
		return
	}
	c.forwarded.Add(1)
	c.member.servedBy(servedName)
	if degraded {
		c.degraded.Add(1)
	}
	// Coordinator-side service span: the whole forwarding effort
	// (candidate attempts, backoff, the node's compute) as one span in
	// the coordinator's lane of the merged trace.
	c.traces.Put(obs.TraceBundle{
		Trace:  traceStr,
		Source: "archcoord",
		Spans: []obs.TraceSpan{
			obs.ServiceSpan("forward", fmt.Sprintf("forward to %s (%d attempts)", servedName, res.Attempts), fwdStart, fwdEnd),
		},
	})
	w.Header().Set("Content-Type", "application/json")
	writeBody(w, http.StatusOK, out)
}

// writeBody answers with status and body, framed by its length rather
// than chunked.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body)
}

// resultNull is where clusterBody splices the node's result into the
// encoded envelope.  Inside an encoded string every quote is escaped,
// so the first match is the result field itself.
var resultNull = []byte(`,"result":null`)

// clusterBody encodes resp as the coordinator's POST /v1/jobs success
// body, with Origin and Result taken from the node's 200 body.
//
// Reading the node body is the check that it is a JobResponse, and its
// error is the caller's 502.  A body in the exact shape a node writes
// is read in one pass by serve.ParseJobResponse; any other body goes
// to json.Unmarshal, whose verdict stands.  The result's bytes are then
// spliced into the encoded envelope instead of going through
// encoding/json again, which would validate and compact them a second
// time.  The body returned is byte for byte what
// json.NewEncoder(w).Encode(resp) writes with the node's result in it.
func clusterBody(nodeBody []byte, resp ClusterResponse) ([]byte, error) {
	origin, result, canonical, ok := serve.ParseJobResponse(nodeBody)
	if !ok {
		var node struct {
			Origin string          `json:"origin"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(nodeBody, &node); err != nil {
			return nil, err
		}
		origin, result = node.Origin, node.Result
	}
	if !canonical {
		// The form the encoder gives a RawMessage: compact, HTML-escaped.
		var err error
		if result, err = json.Marshal(json.RawMessage(result)); err != nil {
			return nil, err
		}
	}
	resp.Origin, resp.Result = origin, nil
	env, err := json.Marshal(resp)
	if err != nil {
		return nil, err
	}
	head, tail, ok := bytes.Cut(env, resultNull)
	if !ok {
		return nil, fmt.Errorf("cluster: no result field in %s", env)
	}
	out := make([]byte, 0, len(env)+len(result)+1)
	out = append(out, head...)
	out = append(out, `,"result":`...)
	out = append(out, result...)
	out = append(out, tail...)
	return append(out, '\n'), nil
}

// handleJobTrace serves GET /v1/jobs/{id}/trace: the merged Chrome
// trace for one traced job.  The coordinator contributes its own
// forward span and fans out to every node's GET /v1/trace/{id} —
// best-effort, so a node that has evicted the bundle (or died) thins
// the trace instead of failing it.  Each contributing process becomes
// one pid lane in the Chrome trace; rank spans keep their rank lanes.
func (c *Coordinator) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	idStr, ok := strings.CutSuffix(rest, "/trace")
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", fmt.Sprintf("unknown path %q", r.URL.Path))
		return
	}
	id, err := obs.ParseTraceID(idStr)
	if err != nil || id == 0 {
		writeError(w, http.StatusBadRequest, "invalid", fmt.Sprintf("bad trace id %q", idStr))
		return
	}
	var bundles []obs.TraceBundle
	if b, ok := c.traces.Get(id); ok {
		bundles = append(bundles, b)
	}
	for _, n := range c.member.Snapshot() {
		status, body, err := c.client.GetJSON(r.Context(), n.URL, "/v1/trace/"+id.String())
		if err != nil || status != http.StatusOK {
			continue
		}
		var b obs.TraceBundle
		if json.Unmarshal(body, &b) == nil && b.Trace == id.String() {
			bundles = append(bundles, b)
		}
	}
	if len(bundles) == 0 {
		writeError(w, http.StatusNotFound, "not_found",
			fmt.Sprintf("trace %s not retained by the coordinator or any node", id))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := obs.MergeChromeTrace(w, bundles); err != nil {
		writeError(w, http.StatusInternalServerError, "internal", err.Error())
	}
}

func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	st := Stats{
		Jobs:      c.jobs.Load(),
		Forwarded: c.forwarded.Load(),
		Degraded:  c.degraded.Load(),
		Failovers: c.failovers.Load(),
		Retried:   c.retried.Load(),
		Exhausted: c.exhausted.Load(),
		Rejected:  c.rejected.Load(),
		Nodes:     c.member.Snapshot(),
	}
	writeJSON(w, http.StatusOK, st)
}

func (c *Coordinator) handleNodes(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.member.Snapshot())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, kind, msg string) {
	writeJSON(w, status, map[string]string{"kind": kind, "error": msg})
}
