package obs

import (
	"sync"
	"testing"
	"time"
)

// TestNilCollectorIsNoOp checks the disabled idiom: every method is
// valid on nil, and none allocates.
func TestNilCollectorIsNoOp(t *testing.T) {
	var c *Collector
	if got := testing.AllocsPerRun(100, func() {
		c.CountSend(0, 8)
		c.CountRecv(0, 8)
		c.CountStep(0)
		c.CountBlock(0)
		c.Begin(0, PhaseExchange, "x")
		c.End(0)
		c.Finish()
		_ = c.Spans()
		_ = c.Snapshot()
	}); got != 0 {
		t.Fatalf("nil collector allocated %v times per run, want 0", got)
	}
	if c.P() != 0 || c.Spans() != nil {
		t.Fatal("nil collector must report empty state")
	}
	snap := c.Snapshot()
	if snap.P != 0 || len(snap.Ranks) != 0 {
		t.Fatalf("nil snapshot not empty: %+v", snap)
	}
}

// TestCounters checks the per-rank counter arithmetic.
func TestCounters(t *testing.T) {
	c := New(3)
	c.CountSend(0, 100)
	c.CountSend(0, 50)
	c.CountRecv(1, 100)
	c.CountRecv(2, 50)
	c.CountStep(1)
	c.CountBlock(2)
	c.Finish()
	snap := c.Snapshot()
	if got := snap.Ranks[0]; got.Sends != 2 || got.BytesSent != 150 || got.Recvs != 0 {
		t.Errorf("rank 0: %+v", got)
	}
	if got := snap.Ranks[1]; got.Recvs != 1 || got.BytesRecvd != 100 || got.Steps != 1 {
		t.Errorf("rank 1: %+v", got)
	}
	if got := snap.Ranks[2]; got.Recvs != 1 || got.Blocks != 1 {
		t.Errorf("rank 2: %+v", got)
	}
}

// TestSpansTileTimeline is the core accounting invariant: each rank's
// spans are contiguous (next.Start == prev.Start+prev.Dur), cover
// [first span start, finish] with no overlap, and the per-phase totals
// equal the summed span durations.
func TestSpansTileTimeline(t *testing.T) {
	c := New(2)
	c.Begin(0, PhaseExchange, "ghost-exchange")
	time.Sleep(2 * time.Millisecond)
	c.End(0)
	c.Begin(0, PhaseCollective, "reduce")
	c.End(0)
	c.Begin(1, PhaseIO, "gather")
	time.Sleep(time.Millisecond)
	c.End(1)
	c.Finish()

	snap := c.Snapshot()
	if !snap.Finished {
		t.Fatal("snapshot not marked finished")
	}
	byRank := map[int][]Span{}
	for _, s := range c.Spans() {
		byRank[s.Rank] = append(byRank[s.Rank], s)
	}
	for rank, spans := range byRank {
		var sum [NumPhases]time.Duration
		for i, s := range spans {
			if s.Dur < 0 {
				t.Errorf("rank %d span %d has negative duration %v", rank, i, s.Dur)
			}
			if i > 0 {
				prev := spans[i-1]
				if s.Start != prev.Start+prev.Dur {
					t.Errorf("rank %d span %d starts at %v, previous ended at %v",
						rank, i, s.Start, prev.Start+prev.Dur)
				}
			}
			sum[s.Phase] += s.Dur
		}
		last := spans[len(spans)-1]
		if end := last.Start + last.Dur; end != snap.Wall {
			t.Errorf("rank %d timeline ends at %v, wall is %v", rank, end, snap.Wall)
		}
		for ph := Phase(0); ph < NumPhases; ph++ {
			// Zero-length compute fillers are elided from the span log but
			// contribute zero time, so the totals still match exactly.
			if got := snap.Ranks[rank].Phase[ph]; got != sum[ph] {
				t.Errorf("rank %d phase %v: snapshot %v, span sum %v", rank, ph, got, sum[ph])
			}
		}
		if busy := snap.Ranks[rank].Busy(); busy != snap.Wall {
			t.Errorf("rank %d busy %v != wall %v", rank, busy, snap.Wall)
		}
	}
	if snap.Ranks[0].Phase[PhaseExchange] <= 0 {
		t.Error("rank 0 recorded no exchange time")
	}
	if snap.Ranks[1].Phase[PhaseIO] <= 0 {
		t.Error("rank 1 recorded no io time")
	}
}

// TestLiveSnapshotAccountsOpenSpan checks that a mid-run snapshot
// credits the currently open phase, so live scrapes see time that sums
// to ~wall.
func TestLiveSnapshotAccountsOpenSpan(t *testing.T) {
	c := New(1)
	c.Begin(0, PhaseExchange, "x")
	time.Sleep(2 * time.Millisecond)
	snap := c.Snapshot()
	if snap.Finished {
		t.Fatal("should not be finished")
	}
	if snap.Ranks[0].Phase[PhaseExchange] < time.Millisecond {
		t.Errorf("open exchange span not credited: %v", snap.Ranks[0].Phase[PhaseExchange])
	}
}

// TestSpanCap checks that the span log caps and counts drops instead of
// growing without bound or truncating silently.
func TestSpanCap(t *testing.T) {
	c := New(1)
	c.maxSpans = 4
	for i := 0; i < 10; i++ {
		c.Begin(0, PhaseExchange, "x")
		c.End(0)
	}
	c.Finish()
	if got := len(c.Spans()); got != 4 {
		t.Errorf("span log has %d entries, want cap 4", got)
	}
	snap := c.Snapshot()
	if snap.DroppedSpans == 0 {
		t.Error("drops not counted")
	}
	// Counters and phase totals are unaffected by the cap.
	var total time.Duration
	for ph := Phase(0); ph < NumPhases; ph++ {
		total += snap.Ranks[0].Phase[ph]
	}
	if total != snap.Wall {
		t.Errorf("phase totals %v != wall %v despite cap", total, snap.Wall)
	}
}

// labelStart labels every rank's initial compute span, so it is never
// elided as a zero-length filler and each rank offers a known number of
// spans to the log.
func labelStart(c *Collector) {
	for r := range c.ranks {
		c.ranks[r].label = "start"
	}
}

// recordConcurrently has every rank of c, each on its own goroutine,
// switch phase n times; with Finish that offers n+1 spans per rank.
func recordConcurrently(c *Collector, n int) {
	var wg sync.WaitGroup
	for r := 0; r < c.P(); r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				c.Begin(r, Phase(1+i%(int(NumPhases)-1)), "op")
			}
		}(r)
	}
	wg.Wait()
	c.Finish()
}

// TestSpanCapAcrossRanks: the cap bounds the whole collector's log, not
// each rank's, when two ranks record at once; every span past it is
// counted as dropped, and each rank keeps a prefix of its timeline.
func TestSpanCapAcrossRanks(t *testing.T) {
	const n, limit = 100, 50
	c := New(2)
	c.maxSpans = limit
	labelStart(c)
	recordConcurrently(c, n)

	spans := c.Spans()
	if len(spans) != limit {
		t.Fatalf("span log has %d entries, want the cap %d", len(spans), limit)
	}
	if got, want := c.Snapshot().DroppedSpans, int64(2*(n+1)-limit); got != want {
		t.Fatalf("DroppedSpans = %d, want %d recorded minus the cap %d", got, 2*(n+1), limit)
	}
	checkRankTimelines(t, spans, -1)
}

// TestSpansRankByRank: Spans returns the log rank by rank, and each
// rank's spans tile its timeline from the epoch to the finish, in time
// order, even when the ranks recorded concurrently.
func TestSpansRankByRank(t *testing.T) {
	const n = 200
	c := New(3)
	labelStart(c)
	recordConcurrently(c, n)

	spans := c.Spans()
	if len(spans) != 3*(n+1) || c.Snapshot().DroppedSpans != 0 {
		t.Fatalf("%d spans, %d dropped; want %d and none", len(spans), c.Snapshot().DroppedSpans, 3*(n+1))
	}
	checkRankTimelines(t, spans, c.Snapshot().Wall)
}

// checkRankTimelines checks that spans come rank by rank and that each
// rank's spans start at 0 and follow one another without gap or
// overlap; with wall >= 0, each rank's last span ends at wall.
func checkRankTimelines(t *testing.T, spans []Span, wall time.Duration) {
	t.Helper()
	for i, s := range spans {
		if i == 0 || s.Rank != spans[i-1].Rank {
			if i > 0 && s.Rank < spans[i-1].Rank {
				t.Fatalf("span %d: rank %d after rank %d", i, s.Rank, spans[i-1].Rank)
			}
			if s.Start != 0 {
				t.Fatalf("rank %d's first span starts at %v, want 0", s.Rank, s.Start)
			}
		} else if prev := spans[i-1]; s.Start != prev.Start+prev.Dur {
			t.Fatalf("rank %d span %d starts at %v, previous ended at %v", s.Rank, i, s.Start, prev.Start+prev.Dur)
		}
		last := i == len(spans)-1 || spans[i+1].Rank != s.Rank
		if last && wall >= 0 && s.Start+s.Dur != wall {
			t.Fatalf("rank %d's timeline ends at %v, wall is %v", s.Rank, s.Start+s.Dur, wall)
		}
	}
}

// TestResetReusesSpanLogs: Reset clears what a run recorded and stamps
// the next run's trace, and each rank keeps its span log, so a replay
// of one job's worth of phase switches — about 1 000 spans over two
// ranks, as a job of the service records — allocates nothing.
func TestResetReusesSpanLogs(t *testing.T) {
	const switches = 250 // per rank, each a Begin and an End
	c := New(2)
	job := func() {
		labelStart(c)
		for r := 0; r < c.P(); r++ {
			for i := 0; i < switches; i++ {
				c.Begin(r, PhaseExchange, "ghost-exchange")
				c.CountSend(r, 8)
				c.End(r)
			}
		}
		c.Finish()
	}
	job()
	if n := len(c.Spans()); n < 2*switches {
		t.Fatalf("one job recorded %d spans, want at least %d", n, 2*switches)
	}

	c.Reset(7)
	snap := c.Snapshot()
	if len(c.Spans()) != 0 || snap.Finished || snap.DroppedSpans != 0 || c.Trace() != 7 {
		t.Fatalf("after Reset: %d spans, finished %v, %d dropped, trace %v; want none, false, 0, 7",
			len(c.Spans()), snap.Finished, snap.DroppedSpans, c.Trace())
	}
	for _, rs := range snap.Ranks {
		if rs.Sends != 0 || rs.BytesSent != 0 || rs.Phase[PhaseExchange] != 0 {
			t.Fatalf("rank %d after Reset: %+v, want zero counters", rs.Rank, rs)
		}
	}

	job()
	snap = c.Snapshot()
	if snap.Ranks[1].Sends != switches {
		t.Fatalf("rank 1 counted %d sends after Reset, want %d", snap.Ranks[1].Sends, switches)
	}
	checkRankTimelines(t, c.Spans(), snap.Wall)

	if n := testing.AllocsPerRun(5, func() {
		c.Reset(7)
		job()
	}); n != 0 {
		t.Fatalf("Reset and a replay of one job allocated %v times, want 0", n)
	}
}

// TestResetReleasesOutsizedSpanLogs: a rank whose log outgrew
// retainSpans in one run gives it up at Reset, and a rank within the
// bound keeps its capacity.
func TestResetReleasesOutsizedSpanLogs(t *testing.T) {
	c := New(2)
	labelStart(c)
	for i := 0; i < retainSpans; i++ { // rank 0 only: > retainSpans spans
		c.Begin(0, PhaseExchange, "ghost-exchange")
		c.End(0)
	}
	for i := 0; i < 10; i++ {
		c.Begin(1, PhaseExchange, "ghost-exchange")
		c.End(1)
	}
	c.Finish()
	if n := cap(c.ranks[0].spans); n <= retainSpans {
		t.Fatalf("rank 0 log capacity %d after %d switches, want above %d", n, retainSpans, retainSpans)
	}
	kept := cap(c.ranks[1].spans)
	c.Reset(1)
	if got := cap(c.ranks[0].spans); got != 0 {
		t.Fatalf("rank 0 log capacity %d after Reset, want 0 (released)", got)
	}
	if got := cap(c.ranks[1].spans); got != kept || got == 0 {
		t.Fatalf("rank 1 log capacity %d after Reset, want %d (kept)", got, kept)
	}
}
