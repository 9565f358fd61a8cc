// Package channel implements the communication substrate of the paper's
// parallel program model: single-reader single-writer channels with
// infinite slack (unbounded capacity).
//
// Two implementations are provided.  Queue is a plain sequential FIFO
// used when executing sequential simulated-parallel (SSP) programs:
// sends never block, and receiving from an empty queue panics, because
// a correct SSP ordering guarantees "no attempt is made to read from a
// channel unless it is known not to be empty".  Chan is a goroutine-safe
// unbounded channel used by the real parallel runtime: sends never
// block (infinite slack), and a receive on an empty channel polls it
// briefly and then parks on the channel's own condition variable.
//
// Net bundles a full point-to-point network of such channels between P
// processes — the "tagged point-to-point messages" with which the paper
// simulates channels on message-passing architectures.  It is the
// in-process Transport: Abort wakes every parked receive, exactly as on
// the socket transport, so the runtime receives the same way on both.
package channel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Endpoint is the common behaviour of both channel implementations:
// a FIFO with non-blocking sends.
type Endpoint[T any] interface {
	// Send enqueues v.  It never blocks: the channel has infinite slack.
	Send(v T)
	// Recv dequeues the oldest value.  For Queue it panics when empty;
	// for Chan it blocks until a value arrives.
	Recv() T
	// TryRecv dequeues the oldest value if one is present.
	TryRecv() (T, bool)
	// Len returns the number of queued values.
	Len() int
}

// Queue is a sequential unbounded FIFO channel.  It is not safe for
// concurrent use; it is the channel representation used when simulating
// parallel execution sequentially.
type Queue[T any] struct {
	buf  []T
	head int
	// Sends counts the total number of values ever enqueued.
	Sends int
}

// NewQueue returns an empty sequential channel.
func NewQueue[T any]() *Queue[T] { return &Queue[T]{} }

// Send enqueues v; it never blocks.
func (q *Queue[T]) Send(v T) {
	q.buf = append(q.buf, v)
	q.Sends++
}

// Recv dequeues the oldest value.  It panics if the channel is empty:
// in a well-formed SSP execution every receive is preceded by the
// matching send, so an empty receive is a program bug, not a condition
// to wait on.
func (q *Queue[T]) Recv() T {
	if q.head >= len(q.buf) {
		panic("channel: receive from empty channel in sequential execution " +
			"(the SSP ordering must perform all sends of a data-exchange " +
			"operation before any receives)")
	}
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero // release for GC
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return v
}

// TryRecv dequeues the oldest value if one is present.
func (q *Queue[T]) TryRecv() (T, bool) {
	var zero T
	if q.head >= len(q.buf) {
		return zero, false
	}
	return q.Recv(), true
}

// Len returns the number of queued values.
func (q *Queue[T]) Len() int { return len(q.buf) - q.head }

// Chan is a goroutine-safe unbounded channel: a single-reader
// single-writer channel with infinite slack.  Send never blocks; Recv
// blocks until a value is available or the channel is aborted.  (The
// implementation tolerates multiple senders/receivers, but the paper's
// model — and all uses in this repository — pair exactly one of each
// per channel.)
type Chan[T any] struct {
	mu    sync.Mutex
	ready *sync.Cond
	buf   []T
	head  int
	err   error // set by abort: a parked Recv panics with it
}

// NewChan returns an empty concurrent unbounded channel.
func NewChan[T any]() *Chan[T] {
	c := &Chan[T]{}
	c.ready = sync.NewCond(&c.mu)
	return c
}

// Send enqueues v.  It never blocks (infinite slack).
func (c *Chan[T]) Send(v T) {
	c.mu.Lock()
	c.buf = append(c.buf, v)
	c.mu.Unlock()
	c.ready.Signal()
}

// Recv dequeues the oldest value.  An empty channel is polled for
// pollBudget, then Recv parks until a value arrives.  Values already
// sent are delivered even after an abort; past them, a Recv on an
// aborted channel panics with a *TransportError.
func (c *Chan[T]) Recv() T {
	if v, ok := pollRecv[T](c); ok {
		return v
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.head >= len(c.buf) {
		if c.err != nil {
			panic(&TransportError{Err: c.err})
		}
		c.ready.Wait()
	}
	return c.popLocked()
}

// abort fails the channel with err and wakes its parked receiver.
func (c *Chan[T]) abort(err error) {
	c.mu.Lock()
	c.err = err
	c.mu.Unlock()
	c.ready.Broadcast()
}

// TryRecv dequeues the oldest value if one is present, without blocking.
func (c *Chan[T]) TryRecv() (T, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var zero T
	if c.head >= len(c.buf) {
		return zero, false
	}
	return c.popLocked(), true
}

func (c *Chan[T]) popLocked() T {
	v := c.buf[c.head]
	var zero T
	c.buf[c.head] = zero
	c.head++
	if c.head == len(c.buf) {
		c.buf = c.buf[:0]
		c.head = 0
	}
	return v
}

// Len returns the number of queued values.
func (c *Chan[T]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.buf) - c.head
}

// Net is a complete point-to-point network: one single-reader
// single-writer channel for each ordered pair of processes (from, to).
// Process indices run from 0 to P-1.
type Net[T any] struct {
	p     int
	chans []Endpoint[T] // index from*p + to
	err   atomic.Pointer[error]
}

// NewQueueNet builds a network of sequential channels for P processes,
// for use by the sequential simulated-parallel executor.
func NewQueueNet[T any](p int) *Net[T] {
	return newNet[T](p, func() Endpoint[T] { return NewQueue[T]() })
}

// NewChanNet builds a network of concurrent unbounded channels for P
// processes, for use by the real parallel runtime.
func NewChanNet[T any](p int) *Net[T] {
	return newNet[T](p, func() Endpoint[T] { return NewChan[T]() })
}

func newNet[T any](p int, mk func() Endpoint[T]) *Net[T] {
	if p <= 0 {
		panic(fmt.Sprintf("channel: network size must be positive, got %d", p))
	}
	n := &Net[T]{p: p, chans: make([]Endpoint[T], p*p)}
	for i := range n.chans {
		n.chans[i] = mk()
	}
	return n
}

// P returns the number of processes in the network.
func (n *Net[T]) P() int { return n.p }

func (n *Net[T]) check(from, to int) {
	if from < 0 || from >= n.p || to < 0 || to >= n.p {
		panic(fmt.Sprintf("channel: endpoint out of range: from=%d to=%d p=%d", from, to, n.p))
	}
}

// Chan returns the channel from process `from` to process `to`.
func (n *Net[T]) Chan(from, to int) Endpoint[T] {
	n.check(from, to)
	return n.chans[from*n.p+to]
}

// Pending returns the total number of undelivered values in the
// network, used by tests and the deadlock detector.
func (n *Net[T]) Pending() int {
	total := 0
	for _, c := range n.chans {
		total += c.Len()
	}
	return total
}

// pollBudget is how long a receiver polls an empty channel — yielding
// the processor between looks — before it parks.  A parked receiver
// costs a wake-up on the critical path: on the 2-core pipeline host a
// message sent to a parked rank is picked up ~40 µs later (the instant
// the sender itself blocks), against ~4 µs for a 4 KB unix round trip,
// and a Yee step has two such dependent waits.  Measured with
// BenchmarkHaloStep (24×16×16, P = 1: 70 µs/step): P = 2 over unix
// sockets takes 56 µs/step with no polling and 39–46 with any budget
// from 20 to 400 µs; in process 50 against 35–43.  100 µs sits in the
// flat part with room for a neighbour whose half-step is several times
// longer.  Polling is skipped when GOMAXPROCS is 1, where the peer
// cannot run while this rank polls.
const pollBudget = 100 * time.Microsecond

// pollRecv is the first half of every blocking Recv of the Par runtime,
// in process and over sockets alike: look at ep without blocking, again
// and again for at most pollBudget, yielding between looks.  It reports
// false when the channel stayed empty; the caller then parks in
// whatever way its endpoint parks.  By Theorem 1 when a receiver looks
// cannot change what it gets, only how soon.
func pollRecv[T any](ep Endpoint[T]) (T, bool) {
	if v, ok := ep.TryRecv(); ok {
		return v, true
	}
	if runtime.GOMAXPROCS(0) > 1 {
		for deadline := time.Now().Add(pollBudget); time.Now().Before(deadline); {
			runtime.Gosched()
			if v, ok := ep.TryRecv(); ok {
				return v, true
			}
		}
	}
	var zero T
	return zero, false
}
