package channel

import (
	"fmt"
	"sync/atomic"
)

// NetStats accumulates per-channel delivery statistics for a network
// instrumented with Counted endpoint decorators (the runtime installs
// them per run through its endpoint-wrapping seam, mesh.Options.ChanStats):
// how many messages each ordered pair of processes exchanged, and the
// deepest each channel's queue ever grew — the empirical measure of how
// much of the model's "infinite slack" a program actually uses.  All
// methods are safe for concurrent use; the counters are pure atomics, so
// a live metrics scrape never blocks the runtime.
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
	syscalls   atomic.Int64 // estimated write syscalls (writev batches)
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
// from -> to: each one is a coalesced vectored write carrying every
// frame queued for that neighbour since the previous flush.
func (s *NetStats) Flushes(from, to int) int64 { return s.cell(from, to).flushes.Load() }

// Syscalls returns the estimated number of write syscalls issued on the
// link from -> to (one writev batch covers up to 1024 buffers).
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

// Counted wraps an endpoint so that every send and receive on it
// updates the from -> to cell of s.  It composes with other decorators
// (fault injectors) and preserves the wrapped endpoint's FIFO order and
// blocking behaviour.  Use it as a sched.Options.WrapEndpoint:
//
//	stats := channel.NewNetStats(p)
//	opt.WrapEndpoint = func(from, to int, e channel.Endpoint[T]) channel.Endpoint[T] {
//		return channel.Counted(stats, from, to, e)
//	}
func Counted[T any](s *NetStats, from, to int, e Endpoint[T]) Endpoint[T] {
	return &countedEndpoint[T]{e: e, cell: s.cell(from, to)}
}

type countedEndpoint[T any] struct {
	e    Endpoint[T]
	cell *statsCell
}

func (c *countedEndpoint[T]) Send(v T) {
	c.e.Send(v)
	c.cell.msgs.Add(1)
	d := c.cell.depth.Add(1)
	for {
		h := c.cell.high.Load()
		if d <= h || c.cell.high.CompareAndSwap(h, d) {
			break
		}
	}
}

func (c *countedEndpoint[T]) Recv() T {
	v := c.e.Recv()
	c.cell.recvs.Add(1)
	c.cell.depth.Add(-1)
	return v
}

func (c *countedEndpoint[T]) TryRecv() (T, bool) {
	v, ok := c.e.TryRecv()
	if ok {
		c.cell.recvs.Add(1)
		c.cell.depth.Add(-1)
	}
	return v, ok
}

func (c *countedEndpoint[T]) Len() int { return c.e.Len() }
