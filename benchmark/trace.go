package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one call the benchmark made into a layer during the traced
// pass.  Spans of one solve or one request share Op; Parent is the ID
// of the span that caused this one, 0 for a root.  A layer's self time
// is its span minus the spans that name it as parent.
type span struct {
	ID     int            `json:"id"`
	Op     int            `json:"op"`
	Layer  string         `json:"layer"`
	Name   string         `json:"name"`
	Start  int64          `json:"start_ns"`
	End    int64          `json:"end_ns"`
	Parent int            `json:"parent"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// tracer keeps the spans of one traced pass in memory.  All methods are
// no-ops on nil, so untraced code paths need no branches.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its ID.
func (t *tracer) add(op, parent int, layer, name string, start, end time.Time, attrs map[string]any) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Op: op, Layer: layer, Name: name, Parent: parent, Attrs: attrs,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
	return id
}

// selfTimes sums, per layer, each span's duration minus its children's.
func (t *tracer) selfTimes() map[string]time.Duration {
	out := map[string]time.Duration{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.Parent] += s.End - s.Start
	}
	for _, s := range t.spans {
		out[s.Layer] += time.Duration(s.End - s.Start - child[s.ID])
	}
	return out
}

// write stores the spans as dir/trace-<workload>.json.
func (t *tracer) write(dir, workload string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	body, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), body, 0o644)
}
