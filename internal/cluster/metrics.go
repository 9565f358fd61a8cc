package cluster

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/obs"
)

// writeMetrics renders the coordinator's Prometheus text exposition:
// the forwarding and result-cache counters, one forward-latency
// histogram (end-to-end: admission to final node response, retries and
// backoff included — the latency a client of the cluster actually
// experiences), and per-node state gauges labelled by node name.  Node
// names are operator input, so labels go through PromEscapeLabel rather
// than trusting them to be exposition-safe.
func (c *Coordinator) writeMetrics(w io.Writer) error {
	var b strings.Builder
	counter := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("archcoord_jobs_total", "Requests accepted: forwarded, or answered from the result cache.", c.jobs.Load())
	counter("archcoord_cache_hits_total", "Requests answered from the result cache without a forward.", c.cacheHits.Load())
	counter("archcoord_forwarded_total", "Final responses obtained from a node.", c.forwarded.Load())
	counter("archcoord_degraded_total", "Responses served off-primary.", c.degraded.Load())
	counter("archcoord_failovers_total", "Node switches across all requests.", c.failovers.Load())
	counter("archcoord_retried_429_total", "429 responses absorbed by the forwarding client.", c.retried.Load())
	counter("archcoord_exhausted_total", "Requests that spent their retry budget.", c.exhausted.Load())
	counter("archcoord_rejected_total", "Malformed requests answered locally.", c.rejected.Load())

	nodes := c.member.Snapshot()
	fmt.Fprintf(&b, "# HELP archcoord_node_up Node health (1 healthy, 0 suspect, dead or rejoining).\n# TYPE archcoord_node_up gauge\n")
	for _, n := range nodes {
		up := 0
		if n.State == "healthy" {
			up = 1
		}
		fmt.Fprintf(&b, "archcoord_node_up{node=\"%s\"} %d\n", obs.PromEscapeLabel(n.Name), up)
	}
	fmt.Fprintf(&b, "# HELP archcoord_node_served_total Responses served by each node.\n# TYPE archcoord_node_served_total counter\n")
	for _, n := range nodes {
		fmt.Fprintf(&b, "archcoord_node_served_total{node=\"%s\"} %d\n", obs.PromEscapeLabel(n.Name), n.Served)
	}
	fmt.Fprintf(&b, "# HELP archcoord_node_load Last probed load score per node.\n# TYPE archcoord_node_load gauge\n")
	for _, n := range nodes {
		fmt.Fprintf(&b, "archcoord_node_load{node=\"%s\"} %g\n", obs.PromEscapeLabel(n.Name), n.Load)
	}
	fmt.Fprintf(&b, "# HELP archcoord_node_inflight Coordinator-side outstanding forwards per node.\n# TYPE archcoord_node_inflight gauge\n")
	for _, n := range nodes {
		fmt.Fprintf(&b, "archcoord_node_inflight{node=\"%s\"} %d\n", obs.PromEscapeLabel(n.Name), n.Inflight)
	}

	if err := obs.WritePromHistogram(&b, "archcoord_forward_latency_seconds",
		"End-to-end forward latency (admission to final node response, retries included).",
		"", c.fwdLatency.Snapshot()); err != nil {
		return err
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// recordForward folds one completed forward into the latency histogram.
func (c *Coordinator) recordForward(d time.Duration) { c.fwdLatency.Record(d) }
