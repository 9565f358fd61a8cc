package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"time"
)

// TestTraceIDString: String spells every ID exactly as %016x does, and
// ParseTraceID reads it back.
func TestTraceIDString(t *testing.T) {
	ids := []uint64{0, 1, 0xf, 0x10, 1 << 63, math.MaxUint64}
	rng := rand.New(rand.NewPCG(7, 11))
	for i := 0; i < 1000; i++ {
		ids = append(ids, rng.Uint64())
	}
	for _, v := range ids {
		id := TraceID(v)
		if got, want := id.String(), fmt.Sprintf("%016x", v); got != want {
			t.Fatalf("TraceID(%#x).String() = %q, want %q", v, got, want)
		}
		if back, err := ParseTraceID(id.String()); err != nil || back != id {
			t.Fatalf("round trip %s: got %s, err %v", id, back, err)
		}
	}
}

func TestTraceIDRoundTrip(t *testing.T) {
	mint := NewTraceSource(42)
	seen := map[TraceID]bool{}
	for i := 0; i < 1000; i++ {
		id := mint()
		if id == 0 {
			t.Fatal("minted zero trace id")
		}
		if seen[id] {
			t.Fatalf("duplicate trace id %s", id)
		}
		seen[id] = true
		back, err := ParseTraceID(id.String())
		if err != nil || back != id {
			t.Fatalf("round trip %s: got %s, err %v", id, back, err)
		}
	}
	if id, err := ParseTraceID(""); err != nil || id != 0 {
		t.Fatalf("empty parse: %v %v", id, err)
	}
	if _, err := ParseTraceID("not-hex"); err == nil {
		t.Fatal("bad hex parsed without error")
	}
}

func TestCollectorTraceStamp(t *testing.T) {
	var nilCol *Collector
	nilCol.SetTrace(5) // must not panic
	if nilCol.Trace() != 0 {
		t.Fatal("nil collector has a trace")
	}
	c := New(2)
	if c.Trace() != 0 {
		t.Fatal("fresh collector already traced")
	}
	c.SetTrace(TraceID(0xabc))
	if c.Trace() != TraceID(0xabc) {
		t.Fatalf("trace = %s", c.Trace())
	}
	c.Begin(0, PhaseExchange, "x")
	c.End(0)
	c.Finish()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, c); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "X" && ev.Args["trace"] == TraceID(0xabc).String() {
			found = true
		}
	}
	if !found {
		t.Fatal("no span event carries the trace id")
	}
}

func TestTraceStorePutGetEvict(t *testing.T) {
	ts := NewTraceStore(2)
	mk := func(id TraceID) TraceBundle {
		return TraceBundle{Trace: id.String(), Source: "n", Spans: []TraceSpan{{Rank: 0, Phase: "compute"}}}
	}
	ts.Put(mk(1))
	ts.Put(mk(2))
	if _, ok := ts.Get(1); !ok {
		t.Fatal("trace 1 missing")
	}
	ts.Put(mk(3)) // evicts 1
	if _, ok := ts.Get(1); ok {
		t.Fatal("trace 1 not evicted")
	}
	if _, ok := ts.Get(3); !ok {
		t.Fatal("trace 3 missing")
	}
	// Extending an existing trace appends spans, no eviction.
	ts.Put(mk(3))
	b, _ := ts.Get(3)
	if len(b.Spans) != 2 {
		t.Fatalf("extended bundle has %d spans, want 2", len(b.Spans))
	}
	// Untraced bundles are dropped.
	ts.Put(TraceBundle{Trace: TraceID(0).String()})
	if ts.Len() != 2 {
		t.Fatalf("store len %d, want 2", ts.Len())
	}
	var nilStore *TraceStore
	nilStore.Put(mk(9)) // must not panic
	if _, ok := nilStore.Get(9); ok {
		t.Fatal("nil store returned a bundle")
	}
}

func TestBundleFromCollectorAndMerge(t *testing.T) {
	c := New(2)
	c.Begin(0, PhaseExchange, "ghost")
	time.Sleep(time.Millisecond)
	c.End(0)
	c.Begin(1, PhaseCollective, "reduce")
	c.End(1)
	c.Finish()
	c.SetTrace(7)
	nodeBundle := BundleFromCollector(7, "node-a", c)
	if nodeBundle.P != 2 || len(nodeBundle.Spans) == 0 {
		t.Fatalf("bundle: P=%d spans=%d", nodeBundle.P, len(nodeBundle.Spans))
	}
	now := time.Now()
	coordBundle := TraceBundle{
		Trace:  TraceID(7).String(),
		Source: "archcoord",
		Spans:  []TraceSpan{ServiceSpan("forward", "forward to node-a", now.Add(-2*time.Millisecond), now)},
	}
	var buf bytes.Buffer
	if err := MergeChromeTrace(&buf, []TraceBundle{coordBundle, nodeBundle}); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Ts   float64        `json:"ts"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatal(err)
	}
	pids := map[int]bool{}
	ranks := map[int]bool{}
	for _, ev := range tf.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		pids[ev.Pid] = true
		if ev.Pid == 1 && ev.Tid > 0 {
			ranks[ev.Tid] = true
		}
		if ev.Args["trace"] != TraceID(7).String() {
			t.Fatalf("event %q lacks shared trace id: %v", ev.Name, ev.Args)
		}
		if ev.Ts < 0 {
			t.Fatalf("negative rebased timestamp %f", ev.Ts)
		}
	}
	if len(pids) != 2 {
		t.Fatalf("merged trace has %d process lanes, want 2", len(pids))
	}
	if len(ranks) < 2 {
		t.Fatalf("node lane has %d rank lanes, want >= 2", len(ranks))
	}
}
