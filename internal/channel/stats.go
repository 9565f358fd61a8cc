package channel

import (
	"fmt"
	"sync/atomic"
)

// NetStats accumulates per-channel delivery statistics for a network:
// how many messages each ordered pair of processes exchanged, and the
// deepest each channel's queue ever grew — the empirical measure of how
// much of the model's "infinite slack" a program actually uses.  The
// runtime records every completed send and receive of a run into it
// (sched.Options.ChanStats), and socket transports add their wire
// counters (SocketOptions.Stats).  All methods are safe for concurrent
// use; the counters are pure atomics, so a live metrics scrape never
// blocks the runtime.
type NetStats struct {
	p     int
	cells []statsCell // index from*p + to
}

type statsCell struct {
	msgs  atomic.Int64 // completed sends
	recvs atomic.Int64 // completed receives
	depth atomic.Int64 // current queue depth
	high  atomic.Int64 // high-water queue depth

	// Wire-level counters, populated only by socket transports.
	wireFrames atomic.Int64 // frames encoded onto the link
	wireBytes  atomic.Int64 // bytes queued for the wire (headers + payloads)
	flushes    atomic.Int64 // non-empty flushes (coalesced writes)
	syscalls   atomic.Int64 // write syscalls of flushes, plus one per drain write
}

// NewNetStats returns zeroed statistics for a P-process network.
func NewNetStats(p int) *NetStats {
	if p <= 0 {
		panic(fmt.Sprintf("channel: stats network size must be positive, got %d", p))
	}
	return &NetStats{p: p, cells: make([]statsCell, p*p)}
}

// P returns the number of processes the statistics cover.
func (s *NetStats) P() int { return s.p }

func (s *NetStats) cell(from, to int) *statsCell {
	if from < 0 || from >= s.p || to < 0 || to >= s.p {
		panic(fmt.Sprintf("channel: stats endpoint out of range: from=%d to=%d p=%d", from, to, s.p))
	}
	return &s.cells[from*s.p+to]
}

// Messages returns the number of messages sent on the channel from -> to.
func (s *NetStats) Messages(from, to int) int64 { return s.cell(from, to).msgs.Load() }

// Received returns the number of messages received on the channel
// from -> to.
func (s *NetStats) Received(from, to int) int64 { return s.cell(from, to).recvs.Load() }

// HighWater returns the deepest queue depth the channel from -> to
// reached.
func (s *NetStats) HighWater(from, to int) int64 { return s.cell(from, to).high.Load() }

// WireFrames returns the number of frames the socket transport encoded
// on the link from -> to.  Zero for in-process transports.
func (s *NetStats) WireFrames(from, to int) int64 { return s.cell(from, to).wireFrames.Load() }

// WireBytes returns the number of bytes (headers + payloads) queued for
// the wire on the link from -> to.
func (s *NetStats) WireBytes(from, to int) int64 { return s.cell(from, to).wireBytes.Load() }

// Flushes returns the number of non-empty flushes of the link
// from -> to: each one is a coalesced write carrying every frame
// queued for that neighbour since the previous flush.
func (s *NetStats) Flushes(from, to int) int64 { return s.cell(from, to).flushes.Load() }

// Syscalls returns the estimated number of write syscalls issued on the
// link from -> to: those of each flush, plus one per drain write.
func (s *NetStats) Syscalls(from, to int) int64 { return s.cell(from, to).syscalls.Load() }

// TotalWireFrames, TotalWireBytes, TotalFlushes and TotalSyscalls sum
// the wire-level counters across every link in the network.
func (s *NetStats) TotalWireFrames() int64 {
	return s.sum(func(c *statsCell) int64 { return c.wireFrames.Load() })
}

// TotalWireBytes returns the network-wide bytes queued for the wire.
func (s *NetStats) TotalWireBytes() int64 {
	return s.sum(func(c *statsCell) int64 { return c.wireBytes.Load() })
}

// TotalFlushes returns the network-wide count of coalesced writes.
func (s *NetStats) TotalFlushes() int64 {
	return s.sum(func(c *statsCell) int64 { return c.flushes.Load() })
}

// TotalSyscalls returns the network-wide estimated write syscall count.
func (s *NetStats) TotalSyscalls() int64 {
	return s.sum(func(c *statsCell) int64 { return c.syscalls.Load() })
}

func (s *NetStats) sum(f func(*statsCell) int64) int64 {
	var total int64
	for i := range s.cells {
		total += f(&s.cells[i])
	}
	return total
}

// TotalMessages returns the number of messages sent across the whole
// network.
func (s *NetStats) TotalMessages() int64 {
	var total int64
	for i := range s.cells {
		total += s.cells[i].msgs.Load()
	}
	return total
}

// MaxHighWater returns the deepest queue depth reached by any channel —
// the network-wide slack usage.
func (s *NetStats) MaxHighWater() int64 {
	var max int64
	for i := range s.cells {
		if h := s.cells[i].high.Load(); h > max {
			max = h
		}
	}
	return max
}

// RecordSend counts one completed send on the channel from -> to and
// raises the channel's high-water mark if its depth is a new maximum.
// The runtime calls it after the send has returned (sched.Ctx.Send).
func (s *NetStats) RecordSend(from, to int) {
	c := s.cell(from, to)
	c.msgs.Add(1)
	d := c.depth.Add(1)
	for {
		h := c.high.Load()
		if d <= h || c.high.CompareAndSwap(h, d) {
			break
		}
	}
}

// RecordRecv counts one completed receive on the channel from -> to.
func (s *NetStats) RecordRecv(from, to int) {
	c := s.cell(from, to)
	c.recvs.Add(1)
	c.depth.Add(-1)
}
