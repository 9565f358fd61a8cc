// Package obs is the runtime observability layer: low-overhead per-rank
// counters and phase timers for the parallel runtime, with exporters
// for Chrome trace_event JSON (chrometrace.go), Prometheus text
// exposition plus expvar/pprof HTTP endpoints (prometheus.go), and a
// structured RunReport of one run's time breakdown, balance and
// communication as a machine-readable artifact (report.go).
//
// The central type is the Collector.  It is threaded through the
// existing runtime seams — sched.Options.Collector counts every
// communication action, mesh's collectives and boundary exchanges mark
// phases, and channel.NetStats (sched.Options.ChanStats, recorded at
// the same site in sched.Ctx) counts per-channel traffic — and follows
// the repository's disabled-is-free idiom: a nil *Collector is valid,
// every method no-ops on it, and the instrumented hot paths add zero
// allocations (covered by sched's TestInstrumentationAllocs).
//
// Time accounting model: each rank is always in exactly one phase.
// Ranks start in PhaseCompute; an archetype communication operation
// switches the rank to its phase (exchange, collective, io, checkpoint)
// for the operation's duration and back to compute afterwards.  Spans
// therefore tile each rank's timeline with no gaps or overlaps, so the
// per-phase times of a rank sum exactly to its busy time, and — after
// Finish — to the run's wall time.  Blocked time inside a receive is
// charged to the communication phase that performed the receive, which
// is precisely the "waiting on a neighbour" cost the paper's speedup
// analysis cares about.
package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Phase classifies where a rank's time goes.
type Phase uint8

// Phases.  PhaseCompute is the implicit default between communication
// operations; the others are marked by the archetype library.
const (
	// PhaseCompute is local computation (grid updates, packing).
	PhaseCompute Phase = iota
	// PhaseExchange is a boundary (ghost) exchange with neighbours.
	PhaseExchange
	// PhaseCollective is a broadcast, reduction, or barrier.
	PhaseCollective
	// PhaseIO is host<->grid redistribution (gather/scatter).
	PhaseIO
	// PhaseCheckpoint is checkpoint save/load in the recovery driver.
	PhaseCheckpoint
	// NumPhases is the number of phase kinds.
	NumPhases
)

func (ph Phase) String() string {
	switch ph {
	case PhaseCompute:
		return "compute"
	case PhaseExchange:
		return "exchange"
	case PhaseCollective:
		return "collective"
	case PhaseIO:
		return "io"
	case PhaseCheckpoint:
		return "checkpoint"
	}
	return fmt.Sprintf("Phase(%d)", int(ph))
}

// Span is one contiguous interval a rank spent in a phase, for the
// Chrome-trace timeline.  Start is relative to the collector's epoch.
type Span struct {
	Rank  int
	Phase Phase
	Label string
	Start time.Duration
	Dur   time.Duration
}

// DefaultMaxSpans bounds a collector's span log (~48 B each), counted
// across all its ranks; spans beyond the cap are dropped and counted in
// Snapshot.DroppedSpans so truncation is never silent.  Counters and
// phase totals are unaffected.
const DefaultMaxSpans = 1 << 20

// retainSpans is the largest span-log capacity a rank keeps across
// Reset: 4 096 spans, about 192 KB, near eight times the 536 spans a
// rank records in a 64-step job on the 24x16x16 grid at P=2.  A longer
// run's log is dropped at Reset rather than held for the collector's
// life.
const retainSpans = 1 << 12

// rankState holds one rank's counters, phase tracking and span log.
// The counters are atomics (written on the communication hot path, read
// by live scrapes); the span bookkeeping and the rank's own span log are
// guarded by a per-rank mutex taken only at phase boundaries and by
// readers, so ranks never contend for one lock to record a span.
type rankState struct {
	sends, recvs, steps, blocks atomic.Int64
	bytesSent, bytesRecvd       atomic.Int64
	phaseNanos                  [NumPhases]atomic.Int64

	mu       sync.Mutex
	cur      Phase
	label    string
	curStart time.Duration
	spans    []Span // this rank's recorded spans, in time order
}

// Collector accumulates one run's per-rank counters and phase timers.
// All methods are safe for concurrent use by the rank goroutines and by
// concurrent readers (Snapshot, exporters), and all are no-ops on a nil
// receiver so instrumentation sites need no branching.
type Collector struct {
	p     int
	epoch time.Time
	trace atomic.Uint64 // TraceID stamping the spans (see tracectx.go)

	ranks []rankState

	// offered counts the spans offered to the log across all ranks;
	// the first maxSpans are kept and the rest dropped.
	offered  atomic.Int64
	maxSpans int

	mu       sync.Mutex
	finished time.Duration // wall at Finish; 0 while running
}

// New returns a collector for a P-process run.  Its epoch — the zero
// point of all span timestamps — is the moment of creation, so create
// it immediately before launching the run.
func New(p int) *Collector {
	if p <= 0 {
		panic(fmt.Sprintf("obs: collector needs p > 0, got %d", p))
	}
	return &Collector{
		p:        p,
		epoch:    time.Now(),
		ranks:    make([]rankState, p),
		maxSpans: DefaultMaxSpans,
	}
}

// Reset readies the collector for another run of the same P, stamped
// with trace: a new epoch, zero counters and phase times, an empty span
// log and no Finish.  Each rank keeps its span log's capacity up to
// retainSpans, so a collector reused run after run stops allocating
// for spans once it has held the longest run's, and one outsized run
// does not pin its log.  Copies already taken (Spans, Snapshot,
// BundleFromCollector) are unaffected.  Call it between runs only,
// with no rank recording and no reader in flight.  Safe on nil.
func (c *Collector) Reset(trace TraceID) {
	if c == nil {
		return
	}
	c.epoch = time.Now()
	c.SetTrace(trace)
	for r := range c.ranks {
		rs := &c.ranks[r]
		rs.sends.Store(0)
		rs.recvs.Store(0)
		rs.steps.Store(0)
		rs.blocks.Store(0)
		rs.bytesSent.Store(0)
		rs.bytesRecvd.Store(0)
		for ph := range rs.phaseNanos {
			rs.phaseNanos[ph].Store(0)
		}
		rs.mu.Lock()
		rs.cur, rs.label, rs.curStart = PhaseCompute, "", 0
		if cap(rs.spans) > retainSpans {
			rs.spans = nil
		} else {
			rs.spans = rs.spans[:0]
		}
		rs.mu.Unlock()
	}
	c.offered.Store(0)
	c.mu.Lock()
	c.finished = 0
	c.mu.Unlock()
}

// P returns the process count, 0 on nil.
func (c *Collector) P() int {
	if c == nil {
		return 0
	}
	return c.p
}

// Epoch returns the collector's creation instant — the zero point of
// every span timestamp, which trace mergers use to place spans from
// different collectors on one wall-clock axis.  Zero time on nil.
func (c *Collector) Epoch() time.Time {
	if c == nil {
		return time.Time{}
	}
	return c.epoch
}

func (c *Collector) now() time.Duration { return time.Since(c.epoch) }

func (c *Collector) rank(r int) *rankState {
	if r < 0 || r >= c.p {
		panic(fmt.Sprintf("obs: rank %d out of range [0,%d)", r, c.p))
	}
	return &c.ranks[r]
}

// CountSend records one send of approximately `bytes` payload bytes by
// `rank`.  Safe on nil.
func (c *Collector) CountSend(rank, bytes int) {
	if c == nil {
		return
	}
	rs := c.rank(rank)
	rs.sends.Add(1)
	rs.bytesSent.Add(int64(bytes))
}

// CountRecv records one receive of approximately `bytes` payload bytes
// by `rank`.  Safe on nil.
func (c *Collector) CountRecv(rank, bytes int) {
	if c == nil {
		return
	}
	rs := c.rank(rank)
	rs.recvs.Add(1)
	rs.bytesRecvd.Add(int64(bytes))
}

// CountStep records one local-computation step marker.  Safe on nil.
func (c *Collector) CountStep(rank int) {
	if c == nil {
		return
	}
	c.rank(rank).steps.Add(1)
}

// CountBlock records that `rank` blocked on an empty channel.  Safe on
// nil.
func (c *Collector) CountBlock(rank int) {
	if c == nil {
		return
	}
	c.rank(rank).blocks.Add(1)
}

// Begin switches `rank` into phase ph (closing its current span) with a
// label for the timeline.  Each archetype operation calls Begin at its
// start and End when it returns; phases do not nest.  Safe on nil.
func (c *Collector) Begin(rank int, ph Phase, label string) {
	if c == nil {
		return
	}
	c.switchPhase(c.rank(rank), rank, ph, label)
}

// End returns `rank` to PhaseCompute, closing the current span.  Safe
// on nil.
func (c *Collector) End(rank int) {
	if c == nil {
		return
	}
	c.switchPhase(c.rank(rank), rank, PhaseCompute, "")
}

// switchPhase closes the rank's open span at `now` and opens the next
// one at the same instant, so spans tile the timeline exactly.
func (c *Collector) switchPhase(rs *rankState, rank int, ph Phase, label string) {
	now := c.now()
	rs.mu.Lock()
	c.closeSpanLocked(rs, rank, now)
	rs.cur, rs.label, rs.curStart = ph, label, now
	rs.mu.Unlock()
}

// closeSpanLocked ends the rank's open span at now: it charges the
// span's time to its phase and appends it to the rank's log unless the
// collector-wide cap is reached.  Called with rs.mu held.
func (c *Collector) closeSpanLocked(rs *rankState, rank int, now time.Duration) {
	dur := now - rs.curStart
	rs.phaseNanos[rs.cur].Add(int64(dur))
	if dur <= 0 && rs.cur == PhaseCompute && rs.label == "" {
		return // zero-length filler between adjacent operations
	}
	if c.offered.Add(1) > int64(c.maxSpans) {
		return // dropped; Snapshot counts it
	}
	rs.spans = append(rs.spans, Span{Rank: rank, Phase: rs.cur, Label: rs.label, Start: rs.curStart, Dur: dur})
}

// Finish closes every rank's open span at a common instant and freezes
// the run's wall time.  Call it once, right after the run returns; the
// collector remains usable (a recovery driver may run further segments,
// and a later Finish re-freezes the wall).  Safe on nil.
func (c *Collector) Finish() {
	if c == nil {
		return
	}
	now := c.now()
	for r := range c.ranks {
		rs := &c.ranks[r]
		rs.mu.Lock()
		c.closeSpanLocked(rs, r, now)
		rs.cur, rs.label, rs.curStart = PhaseCompute, "", now
		rs.mu.Unlock()
	}
	c.mu.Lock()
	c.finished = now
	c.mu.Unlock()
}

// Spans returns a copy of the recorded spans rank by rank, each rank's
// in time order.  Safe on nil.
func (c *Collector) Spans() []Span {
	if c == nil {
		return nil
	}
	out := make([]Span, 0, c.spanCount())
	c.eachSpan(func(s Span) { out = append(out, s) })
	return out
}

// spanCount returns the number of spans the log holds.
func (c *Collector) spanCount() int {
	n := 0
	for r := range c.ranks {
		rs := &c.ranks[r]
		rs.mu.Lock()
		n += len(rs.spans)
		rs.mu.Unlock()
	}
	return n
}

// eachSpan calls fn on every recorded span, rank by rank, each rank's in
// time order.  Each rank's log is read under its own lock, so a live
// run keeps recording on the other ranks meanwhile.
func (c *Collector) eachSpan(fn func(Span)) {
	for r := range c.ranks {
		rs := &c.ranks[r]
		rs.mu.Lock()
		for _, s := range rs.spans {
			fn(s)
		}
		rs.mu.Unlock()
	}
}

// RankSnapshot is one rank's counters and per-phase times at snapshot
// time.
type RankSnapshot struct {
	Rank          int
	Sends, Recvs  int64
	Steps, Blocks int64
	BytesSent     int64
	BytesRecvd    int64
	Phase         [NumPhases]time.Duration
}

// Busy returns the rank's total accounted time: the sum of its phase
// times.  After Finish this equals the run's wall time.
func (r RankSnapshot) Busy() time.Duration {
	var total time.Duration
	for _, d := range r.Phase {
		total += d
	}
	return total
}

// Snapshot is a consistent-enough view of a collector: counters are
// read atomically and open spans contribute their elapsed time, so a
// live scrape mid-run sees phase times that keep summing to ~wall.
type Snapshot struct {
	P            int
	Wall         time.Duration
	Finished     bool
	Ranks        []RankSnapshot
	DroppedSpans int64
}

// Snapshot captures the collector's current state.  Safe on nil (returns
// the zero Snapshot).
func (c *Collector) Snapshot() Snapshot {
	if c == nil {
		return Snapshot{}
	}
	now := c.now()
	c.mu.Lock()
	finished := c.finished
	c.mu.Unlock()

	snap := Snapshot{
		P:            c.p,
		Wall:         now,
		Finished:     finished > 0,
		Ranks:        make([]RankSnapshot, c.p),
		DroppedSpans: max(c.offered.Load()-int64(c.maxSpans), 0),
	}
	if finished > 0 {
		snap.Wall = finished
	}
	for i := range c.ranks {
		rs := &c.ranks[i]
		out := &snap.Ranks[i]
		out.Rank = i
		out.Sends = rs.sends.Load()
		out.Recvs = rs.recvs.Load()
		out.Steps = rs.steps.Load()
		out.Blocks = rs.blocks.Load()
		out.BytesSent = rs.bytesSent.Load()
		out.BytesRecvd = rs.bytesRecvd.Load()
		rs.mu.Lock()
		open := now - rs.curStart
		cur := rs.cur
		for ph := Phase(0); ph < NumPhases; ph++ {
			out.Phase[ph] = time.Duration(rs.phaseNanos[ph].Load())
		}
		rs.mu.Unlock()
		if finished == 0 && open > 0 {
			out.Phase[cur] += open
		}
	}
	return snap
}
