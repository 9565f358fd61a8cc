package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Distributed tracing, storage half: every process that executes part
// of a traced job (the coordinator's routing, a node's queue + P-rank
// mesh run) condenses its spans into a TraceBundle and parks it in a
// bounded node-local TraceStore.  The coordinator's
// GET /v1/jobs/{id}/trace then fans out to the nodes, collects each
// one's bundle for that ID, and merges them into a single Chrome trace
// — one pid lane per process, one tid lane per rank, every event
// stamped with the shared trace ID.  Bundles use absolute wall-clock
// nanoseconds so no cross-process epoch negotiation is needed; on one
// host (and NTP-disciplined clusters) that aligns lanes to well under a
// span width.

// ServiceLane is the Rank value of spans that belong to the process
// itself (queueing, routing, forwarding) rather than to a mesh rank.
const ServiceLane = -1

// TraceSpan is one interval of a traced job in one process.
type TraceSpan struct {
	// Rank is the mesh rank that produced the span, or ServiceLane.
	Rank int `json:"rank"`
	// Phase is the span's category (a Phase string, or a service-side
	// label like "queued"/"forward").
	Phase string `json:"phase"`
	Label string `json:"label,omitempty"`
	// StartUnixNano anchors the span on the wall clock.
	StartUnixNano int64 `json:"start_unix_nano"`
	DurNanos      int64 `json:"dur_nanos"`
}

// TraceBundle is everything one process recorded about one traced job.
type TraceBundle struct {
	Trace  string      `json:"trace"`
	Source string      `json:"source"` // process identity: "archcoord", node name
	P      int         `json:"p,omitempty"`
	Spans  []TraceSpan `json:"spans"`
}

// BundleFromCollector condenses a finished per-job collector into a
// bundle: every recorded rank span, anchored to the wall clock via the
// collector's epoch, followed by the service spans.  The span slice is
// sized once for both.  On a nil collector the bundle holds the service
// spans alone.
func BundleFromCollector(id TraceID, source string, c *Collector, service ...TraceSpan) TraceBundle {
	b := TraceBundle{Trace: id.String(), Source: source, P: c.P()}
	if c == nil {
		b.Spans = service
		return b
	}
	b.Spans = make([]TraceSpan, 0, c.spanCount()+len(service))
	epoch := c.Epoch()
	c.eachSpan(func(s Span) {
		b.Spans = append(b.Spans, TraceSpan{
			Rank:          s.Rank,
			Phase:         s.Phase.String(),
			Label:         s.Label,
			StartUnixNano: epoch.Add(s.Start).UnixNano(),
			DurNanos:      int64(s.Dur),
		})
	})
	b.Spans = append(b.Spans, service...)
	return b
}

// ServiceSpan builds a service-lane span from wall-clock instants.
func ServiceSpan(phase, label string, start, end time.Time) TraceSpan {
	return TraceSpan{
		Rank:          ServiceLane,
		Phase:         phase,
		Label:         label,
		StartUnixNano: start.UnixNano(),
		DurNanos:      end.Sub(start).Nanoseconds(),
	}
}

// TraceStore is a bounded FIFO of recent trace bundles, keyed by trace
// ID.  One process keeps one store; when a job's bundle would exceed
// DefaultTraceDepth traces, the oldest stored trace is evicted.  Safe
// for concurrent use.
type TraceStore struct {
	mu    sync.Mutex
	order []string // eviction order, oldest first
	byID  map[string]TraceBundle
}

// DefaultTraceDepth is the number of traces a TraceStore keeps.
const DefaultTraceDepth = 128

// NewTraceStore returns a store keeping up to DefaultTraceDepth traces.
func NewTraceStore() *TraceStore {
	return &TraceStore{byID: make(map[string]TraceBundle)}
}

// Put stores (or, for a trace already present, extends) the bundle for
// its trace ID.  Extending appends spans: a cache-hit answered by the
// server lane and a later recomputation under the same ID accumulate.
// Safe on nil (dropped).
func (ts *TraceStore) Put(b TraceBundle) {
	if ts == nil || b.Trace == "" || b.Trace == (TraceID(0)).String() {
		return
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if have, ok := ts.byID[b.Trace]; ok {
		have.Spans = append(have.Spans, b.Spans...)
		if b.P > have.P {
			have.P = b.P
		}
		ts.byID[b.Trace] = have
		return
	}
	for len(ts.order) >= DefaultTraceDepth {
		evict := ts.order[0]
		ts.order = ts.order[1:]
		delete(ts.byID, evict)
	}
	ts.order = append(ts.order, b.Trace)
	ts.byID[b.Trace] = b
}

// Get returns the stored bundle for a trace ID.
func (ts *TraceStore) Get(id TraceID) (TraceBundle, bool) {
	if ts == nil {
		return TraceBundle{}, false
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	b, ok := ts.byID[id.String()]
	return b, ok
}

// Len returns the number of stored traces.
func (ts *TraceStore) Len() int {
	if ts == nil {
		return 0
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return len(ts.byID)
}

// MergeChromeTrace writes one Chrome trace_event document merging the
// bundles of a single job: one pid per bundle (process_name = Source),
// one tid per rank within it (ServiceLane spans land on a "service"
// lane), all timestamps rebased to the earliest span so the viewer
// opens at t=0.  Every event carries the trace ID in its args.
func MergeChromeTrace(w io.Writer, bundles []TraceBundle) error {
	tf := traceFile{TraceEvents: []traceEvent{}, DisplayTimeUnit: "ms"}
	var min int64 = 1<<63 - 1
	for _, b := range bundles {
		for _, s := range b.Spans {
			if s.StartUnixNano < min {
				min = s.StartUnixNano
			}
		}
	}
	for pid, b := range bundles {
		tf.TraceEvents = append(tf.TraceEvents, traceEvent{
			Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
			Args: map[string]any{"name": b.Source},
		})
		lanes := map[int]bool{}
		for _, s := range b.Spans {
			lanes[s.Rank] = true
		}
		laneIDs := make([]int, 0, len(lanes))
		for r := range lanes {
			laneIDs = append(laneIDs, r)
		}
		sort.Ints(laneIDs)
		for _, r := range laneIDs {
			name := fmt.Sprintf("rank %d", r)
			if r == ServiceLane {
				name = "service"
			}
			tf.TraceEvents = append(tf.TraceEvents, traceEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: laneTid(r),
				Args: map[string]any{"name": name},
			})
		}
		args := map[string]any{"trace": b.Trace}
		for _, s := range b.Spans {
			name := s.Label
			if name == "" {
				name = s.Phase
			}
			us := float64(s.DurNanos) / 1e3
			if us < 0.1 {
				us = 0.1
			}
			tf.TraceEvents = append(tf.TraceEvents, traceEvent{
				Name: name,
				Cat:  s.Phase,
				Ph:   "X",
				Ts:   float64(s.StartUnixNano-min) / 1e3,
				Dur:  us,
				Pid:  pid,
				Tid:  laneTid(s.Rank),
				Args: args,
			})
		}
	}
	return json.NewEncoder(w).Encode(tf)
}

// laneTid maps a rank to its timeline lane: the service lane renders
// first (tid 0), ranks at 1+rank, so merged traces read top-down as
// service -> ranks.
func laneTid(rank int) int {
	if rank == ServiceLane {
		return 0
	}
	return rank + 1
}
