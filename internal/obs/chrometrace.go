package obs

import (
	"fmt"
	"io"
	"os"
)

// Chrome trace_event export: one complete ("ph":"X") event per phase
// span, one timeline lane ("tid") per rank, loadable in
// chrome://tracing and Perfetto.  Timestamps are microseconds from the
// earliest span, per the trace_event format spec.  One encoder,
// MergeChromeTrace, writes every document; a single run's collector is
// a merge of one bundle.

// traceEvent is one entry of the trace_event JSON array.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteChromeTrace writes the collector's recorded spans as a Chrome
// trace_event JSON document: MergeChromeTrace over the collector's one
// bundle, so rank r is lane r+1.  Call Finish first so trailing spans
// are closed.  Safe on a nil collector (writes an empty trace).
func WriteChromeTrace(w io.Writer, c *Collector) error {
	var bundles []TraceBundle
	if c != nil {
		bundles = []TraceBundle{BundleFromCollector(c.Trace(), "archetype run", c)}
	}
	return MergeChromeTrace(w, bundles)
}

// WriteChromeTraceFile writes the Chrome trace to path (0644,
// truncating).
func WriteChromeTraceFile(path string, c *Collector) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: trace: %w", err)
	}
	if err := WriteChromeTrace(f, c); err != nil {
		f.Close()
		return fmt.Errorf("obs: trace: %w", err)
	}
	return f.Close()
}
