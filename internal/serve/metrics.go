package serve

import (
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// metrics holds the service-level counters and gauges exported over
// the Prometheus text endpoint, alongside the per-job phase timers the
// obs collectors measure.  Everything is atomic: the pool, the
// admission path and the scraper touch it concurrently.
type metrics struct {
	jobsOK        atomic.Int64
	jobsFailed    atomic.Int64
	jobsTimedOut  atomic.Int64
	jobsInFlight  atomic.Int64
	rejectedLoad  atomic.Int64 // admission-queue backpressure
	rejectedDrain atomic.Int64 // draining rejections
	rejectedBad   atomic.Int64 // invalid specs
	cacheHits     atomic.Int64
	cacheMisses   atomic.Int64
	coalesced     atomic.Int64 // requests attached to an in-flight duplicate
	batches       atomic.Int64 // dispatches, one per job run
	// latency is the job wall-time distribution (HDR-style log-bucketed
	// histogram, ~3% relative error).  It subsumes the old scalar mean:
	// the mean is Sum/Count, and the quantiles the mean used to hide —
	// p99, p999 — are what capacity planning actually needs.
	latency    obs.Histogram
	phaseNanos [obs.NumPhases]atomic.Int64
}

// addSnapshot folds one job's observability snapshot into the
// cumulative per-phase timers.
func (m *metrics) addSnapshot(snap obs.Snapshot) {
	for _, r := range snap.Ranks {
		for ph := obs.Phase(0); ph < obs.NumPhases; ph++ {
			m.phaseNanos[ph].Add(r.Phase[ph].Nanoseconds())
		}
	}
}

// avgWall returns the mean job wall time, or fallback when no job has
// completed yet — the basis of the Retry-After estimate.  The sum and
// count in the histogram header are exact (only the bucket placement is
// approximate), so this mean is as precise as the old scalar one.
func (m *metrics) avgWall(fallback time.Duration) time.Duration {
	snap := m.latency.Snapshot()
	if snap.Count == 0 {
		return fallback
	}
	return time.Duration(snap.Sum / snap.Count)
}

// LatencySummary is the histogram-derived latency digest in /v1/stats.
type LatencySummary struct {
	Count  int64   `json:"count"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// latencySummary digests the wall-time histogram for /v1/stats.
func (m *metrics) latencySummary() LatencySummary {
	snap := m.latency.Snapshot()
	ms := func(q float64) float64 {
		return float64(snap.Quantile(q)) / float64(time.Millisecond)
	}
	if snap.Count == 0 {
		return LatencySummary{}
	}
	return LatencySummary{
		Count:  snap.Count,
		P50Ms:  ms(0.5),
		P95Ms:  ms(0.95),
		P99Ms:  ms(0.99),
		P999Ms: ms(0.999),
		MaxMs:  float64(snap.Max) / float64(time.Millisecond),
	}
}

// writeText emits the service metrics in Prometheus text exposition
// format (version 0.0.4), matching the hand-rolled style of
// internal/obs.  queueDepth/queueCap/workers/cached are sampled by the
// caller so this file needs no back-reference to the server.
func (m *metrics) writeText(w io.Writer, queueDepth, queueCap, workers, cached int, evicted int64) error {
	var b strings.Builder
	counter := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	gauge("archserve_queue_depth", "Jobs waiting in the admission queue.", int64(queueDepth))
	gauge("archserve_queue_capacity", "Admission queue bound.", int64(queueCap))
	gauge("archserve_workers", "Pool executors.", int64(workers))
	gauge("archserve_jobs_inflight", "Jobs admitted and not yet completed.", m.jobsInFlight.Load())
	gauge("archserve_cache_entries", "Results currently cached.", int64(cached))

	fmt.Fprintf(&b, "# HELP archserve_jobs_total Completed jobs by status.\n# TYPE archserve_jobs_total counter\n")
	fmt.Fprintf(&b, "archserve_jobs_total{status=\"ok\"} %d\n", m.jobsOK.Load())
	fmt.Fprintf(&b, "archserve_jobs_total{status=\"error\"} %d\n", m.jobsFailed.Load())
	fmt.Fprintf(&b, "archserve_jobs_total{status=\"timeout\"} %d\n", m.jobsTimedOut.Load())

	fmt.Fprintf(&b, "# HELP archserve_rejected_total Requests rejected at admission.\n# TYPE archserve_rejected_total counter\n")
	fmt.Fprintf(&b, "archserve_rejected_total{reason=\"overloaded\"} %d\n", m.rejectedLoad.Load())
	fmt.Fprintf(&b, "archserve_rejected_total{reason=\"draining\"} %d\n", m.rejectedDrain.Load())
	fmt.Fprintf(&b, "archserve_rejected_total{reason=\"invalid\"} %d\n", m.rejectedBad.Load())

	counter("archserve_cache_hits_total", "Jobs answered from the result cache.", m.cacheHits.Load())
	counter("archserve_cache_misses_total", "Jobs that had to compute.", m.cacheMisses.Load())
	counter("archserve_cache_evictions_total", "Cached results dropped past the LRU capacity.", evicted)
	counter("archserve_coalesced_total", "Requests attached to an identical in-flight job.", m.coalesced.Load())
	counter("archserve_batches_total", "Pool dispatches, one per job run.", m.batches.Load())

	latSnap := m.latency.Snapshot()
	fmt.Fprintf(&b, "# HELP archserve_job_wall_seconds_total Cumulative job wall time.\n# TYPE archserve_job_wall_seconds_total counter\n")
	fmt.Fprintf(&b, "archserve_job_wall_seconds_total %g\n", time.Duration(latSnap.Sum).Seconds())

	fmt.Fprintf(&b, "# HELP archserve_job_phase_seconds_total Per-phase time summed over ranks and jobs.\n# TYPE archserve_job_phase_seconds_total counter\n")
	for ph := obs.Phase(0); ph < obs.NumPhases; ph++ {
		fmt.Fprintf(&b, "archserve_job_phase_seconds_total{phase=\"%s\"} %g\n",
			ph, time.Duration(m.phaseNanos[ph].Load()).Seconds())
	}
	if err := obs.WritePromHistogram(&b, "archserve_job_latency_seconds",
		"Job wall-time distribution (completed jobs, all outcomes).", "", latSnap); err != nil {
		return err
	}
	_, err := io.WriteString(w, b.String())
	return err
}
