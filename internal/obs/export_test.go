package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"

	"repro/internal/channel"
)

func sampleCollector() *Collector {
	c := New(2)
	c.CountSend(0, 800)
	c.CountRecv(1, 800)
	c.CountStep(0)
	c.Begin(0, PhaseExchange, "ghost-exchange")
	c.End(0)
	c.Begin(1, PhaseCollective, "reduce")
	c.End(1)
	c.Finish()
	return c
}

// TestChromeTraceShape validates the trace_event document: every event
// has the required keys, complete events carry non-negative ts/dur, and
// lanes stay within the rank range (rank r on lane r+1, as in a merged
// trace).
func TestChromeTraceShape(t *testing.T) {
	c := sampleCollector()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, c); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	complete, meta := 0, 0
	for i, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		name, _ := ev["name"].(string)
		if name == "" {
			t.Errorf("event %d has no name: %v", i, ev)
		}
		switch ph {
		case "M":
			meta++
		case "X":
			complete++
			ts, ok := ev["ts"].(float64)
			if !ok || ts < 0 {
				t.Errorf("event %d has bad ts: %v", i, ev)
			}
			dur, ok := ev["dur"].(float64)
			if !ok || dur <= 0 {
				t.Errorf("event %d has bad dur: %v", i, ev)
			}
			tid, ok := ev["tid"].(float64)
			if !ok || tid < 1 || int(tid) > c.P() { // rank r is lane r+1
				t.Errorf("event %d has lane outside rank range: %v", i, ev)
			}
			if cat, _ := ev["cat"].(string); cat == "" {
				t.Errorf("event %d has no phase category: %v", i, ev)
			}
		default:
			t.Errorf("event %d has unexpected ph %q", i, ph)
		}
	}
	if complete == 0 {
		t.Error("no complete (ph=X) events")
	}
	// One thread_name metadata event per rank plus the process name.
	if meta != c.P()+1 {
		t.Errorf("got %d metadata events, want %d", meta, c.P()+1)
	}
	// Both rank lanes must appear.
	lanes := map[int]bool{}
	for _, s := range c.Spans() {
		lanes[s.Rank] = true
	}
	if len(lanes) != 2 {
		t.Errorf("spans cover lanes %v, want both ranks", lanes)
	}
	// A nil collector writes a valid document with no events.
	buf.Reset()
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil || len(doc.TraceEvents) != 0 {
		t.Errorf("nil collector wrote %q (%v), want an empty trace", buf.String(), err)
	}
}

// promLine matches one sample line of the text exposition format.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [-+0-9.eEIinfNa]+$`)

// TestPrometheusExposition checks the text format line by line and the
// presence of every expected family.
func TestPrometheusExposition(t *testing.T) {
	c := sampleCollector()
	stats := channel.NewNetStats(2)
	stats.RecordSend(0, 1)
	stats.RecordSend(0, 1)

	var buf bytes.Buffer
	if err := (Exporter{Collector: c, Net: stats}).WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, family := range []string{
		"archetype_ranks",
		"archetype_wall_seconds",
		"archetype_sends_total",
		"archetype_recvs_total",
		"archetype_steps_total",
		"archetype_blocks_total",
		"archetype_bytes_sent_total",
		"archetype_bytes_recvd_total",
		"archetype_phase_seconds_total",
		"archetype_channel_messages_total",
		"archetype_channel_high_water",
	} {
		if !strings.Contains(out, family) {
			t.Errorf("exposition missing family %s", family)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("malformed exposition line: %q", line)
		}
	}
	if !strings.Contains(out, `archetype_sends_total{rank="0"} 1`) {
		t.Errorf("rank 0 send count not exported:\n%s", out)
	}
	if !strings.Contains(out, `archetype_channel_messages_total{from="0",to="1"} 2`) {
		t.Errorf("channel message count not exported:\n%s", out)
	}
}

// TestPrometheusWireCounters: the exporter must surface the wire-level
// counters for populated links and stay silent for idle networks.
func TestPrometheusWireCounters(t *testing.T) {
	stats := channel.NewNetStats(2)
	var empty strings.Builder
	if err := (Exporter{Net: stats}).WriteText(&empty); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(empty.String(), "archetype_wire_frames_total") {
		t.Fatal("idle network emitted wire counters")
	}
	tr, err := channel.NewLoopbackMesh(2, "tcp", intPairCodec(), channel.SocketOptions{Stats: stats})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.Chan(1, 0).Send(7)
	tr.Flush(1)
	var b strings.Builder
	if err := (Exporter{Net: stats}).WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`archetype_wire_frames_total{from="1",to="0"} 1`,
		`archetype_wire_flushes_total{from="1",to="0"} 1`,
		`archetype_wire_syscalls_total{from="1",to="0"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, out)
		}
	}
}

// intPairCodec is a little-endian int64 codec for the loopback mesh.
func intPairCodec() channel.Codec[int64] {
	return channel.Codec[int64]{
		Append: func(dst []byte, v int64) []byte {
			for i := 0; i < 8; i++ {
				dst = append(dst, byte(v>>(8*i)))
			}
			return dst
		},
		Decode: func(src []byte) (int64, error) {
			var v int64
			for i := 0; i < 8; i++ {
				v |= int64(src[i]) << (8 * i)
			}
			return v, nil
		},
	}
}

// TestServeEndpoints spins the HTTP server on a free port and checks
// every mounted endpoint answers.
func TestServeEndpoints(t *testing.T) {
	c := sampleCollector()
	srv, addr, err := Serve("127.0.0.1:0", Exporter{Collector: c})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, path := range []string{"/metrics", "/debug/obs", "/debug/vars", "/debug/pprof/"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		if len(body) == 0 {
			t.Errorf("GET %s: empty body", path)
		}
	}
	// /debug/obs must be a parseable RunReport.
	resp, err := http.Get("http://" + addr + "/debug/obs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep RunReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatalf("/debug/obs is not a RunReport: %v", err)
	}
	if rep.P != 2 {
		t.Errorf("live report P = %d, want 2", rep.P)
	}
}
