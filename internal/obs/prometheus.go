package obs

import (
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"repro/internal/channel"
)

// Prometheus text exposition (version 0.0.4) of a collector and,
// optionally, the channel-level network statistics, plus an HTTP server
// that mounts /metrics next to the standard Go debug endpoints
// (expvar, pprof).  No third-party client library is used; the text
// format is written directly.

// Exporter bundles the metric sources behind one /metrics endpoint.
type Exporter struct {
	// Collector supplies the per-rank counters and phase timers.
	Collector *Collector
	// Net, if non-nil, supplies per-channel message counts and queue
	// high-water marks.
	Net *channel.NetStats
}

// WriteText writes the metrics in Prometheus text exposition format.
func (e Exporter) WriteText(w io.Writer) error {
	var b strings.Builder
	if c := e.Collector; c != nil {
		snap := c.Snapshot()
		fmt.Fprintf(&b, "# HELP archetype_ranks Number of processes in the run.\n# TYPE archetype_ranks gauge\n")
		fmt.Fprintf(&b, "archetype_ranks %d\n", snap.P)
		fmt.Fprintf(&b, "# HELP archetype_wall_seconds Run wall time (frozen at Finish).\n# TYPE archetype_wall_seconds gauge\n")
		fmt.Fprintf(&b, "archetype_wall_seconds %g\n", snap.Wall.Seconds())

		writeRankCounter(&b, "archetype_sends_total", "Messages sent, per rank.", snap, func(r RankSnapshot) int64 { return r.Sends })
		writeRankCounter(&b, "archetype_recvs_total", "Messages received, per rank.", snap, func(r RankSnapshot) int64 { return r.Recvs })
		writeRankCounter(&b, "archetype_steps_total", "Local-computation step markers, per rank.", snap, func(r RankSnapshot) int64 { return r.Steps })
		writeRankCounter(&b, "archetype_blocks_total", "Blocking waits on empty channels, per rank.", snap, func(r RankSnapshot) int64 { return r.Blocks })
		writeRankCounter(&b, "archetype_bytes_sent_total", "Estimated payload bytes sent, per rank.", snap, func(r RankSnapshot) int64 { return r.BytesSent })
		writeRankCounter(&b, "archetype_bytes_recvd_total", "Estimated payload bytes received, per rank.", snap, func(r RankSnapshot) int64 { return r.BytesRecvd })

		fmt.Fprintf(&b, "# HELP archetype_phase_seconds_total Time spent per rank per phase.\n# TYPE archetype_phase_seconds_total counter\n")
		for _, r := range snap.Ranks {
			for ph := Phase(0); ph < NumPhases; ph++ {
				fmt.Fprintf(&b, "archetype_phase_seconds_total{rank=\"%d\",phase=\"%s\"} %g\n",
					r.Rank, ph, r.Phase[ph].Seconds())
			}
		}
		if snap.DroppedSpans > 0 {
			fmt.Fprintf(&b, "# HELP archetype_spans_dropped_total Timeline spans dropped beyond the cap.\n# TYPE archetype_spans_dropped_total counter\n")
			fmt.Fprintf(&b, "archetype_spans_dropped_total %d\n", snap.DroppedSpans)
		}
	}
	if s := e.Net; s != nil {
		fmt.Fprintf(&b, "# HELP archetype_channel_messages_total Messages delivered per channel.\n# TYPE archetype_channel_messages_total counter\n")
		for from := 0; from < s.P(); from++ {
			for to := 0; to < s.P(); to++ {
				if m := s.Messages(from, to); m > 0 {
					fmt.Fprintf(&b, "archetype_channel_messages_total{from=\"%d\",to=\"%d\"} %d\n", from, to, m)
				}
			}
		}
		fmt.Fprintf(&b, "# HELP archetype_channel_high_water Deepest queue depth per channel (slack usage).\n# TYPE archetype_channel_high_water gauge\n")
		for from := 0; from < s.P(); from++ {
			for to := 0; to < s.P(); to++ {
				if h := s.HighWater(from, to); h > 0 {
					fmt.Fprintf(&b, "archetype_channel_high_water{from=\"%d\",to=\"%d\"} %d\n", from, to, h)
				}
			}
		}
		// Wire-level counters are populated only when a socket transport
		// carries the channels; an all-zero network emits nothing.
		writeLinkCounter(&b, "archetype_wire_frames_total", "Frames encoded onto each socket link.", s, s.WireFrames)
		writeLinkCounter(&b, "archetype_wire_bytes_total", "Bytes (headers + payloads) queued for each socket link.", s, s.WireBytes)
		writeLinkCounter(&b, "archetype_wire_flushes_total", "Coalesced writes per socket link.", s, s.Flushes)
		writeLinkCounter(&b, "archetype_wire_syscalls_total", "Estimated write syscalls per socket link.", s, s.Syscalls)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeLinkCounter(b *strings.Builder, name, help string, s *channel.NetStats, get func(from, to int) int64) {
	wrote := false
	for from := 0; from < s.P(); from++ {
		for to := 0; to < s.P(); to++ {
			v := get(from, to)
			if v == 0 {
				continue
			}
			if !wrote {
				fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
				wrote = true
			}
			fmt.Fprintf(b, "%s{from=\"%d\",to=\"%d\"} %d\n", name, from, to, v)
		}
	}
}

func writeRankCounter(b *strings.Builder, name, help string, snap Snapshot, get func(RankSnapshot) int64) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	for _, r := range snap.Ranks {
		fmt.Fprintf(b, "%s{rank=\"%d\"} %d\n", name, r.Rank, get(r))
	}
}

// Handler returns the /metrics HTTP handler.
func (e Exporter) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := e.WriteText(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// Mux returns the full observability mux: Prometheus metrics, a JSON
// snapshot, expvar, and pprof.
func (e Exporter) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", e.Handler())
	mux.HandleFunc("/debug/obs", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		rep := BuildReport("live snapshot", e.Collector.Snapshot())
		if err := rep.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve starts the observability HTTP server on addr (":0" picks a free
// port) and returns the server and its bound address.  The caller owns
// shutdown: srv.Close() when the run ends.
func Serve(addr string, e Exporter) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("obs: metrics listener: %w", err)
	}
	srv := &http.Server{Handler: e.Mux(), ReadHeaderTimeout: 5 * time.Second}
	go func() {
		// ErrServerClosed is the normal shutdown path; anything else has
		// nowhere to go but the caller's logs via srv.ErrorLog (unset).
		_ = srv.Serve(ln)
	}()
	return srv, ln.Addr().String(), nil
}
