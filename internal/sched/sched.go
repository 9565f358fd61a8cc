// Package sched executes networks of deterministic processes that
// interact only through single-reader single-writer channels with
// infinite slack — the parallel program model of the paper's §3.1.
//
// Two backends are provided.  RunControlled is a cooperative
// scheduler: exactly one process runs at a time, and at every
// communication action a pluggable Policy chooses which enabled process
// acts next.  That is the seam the schedule explorer (internal/explore)
// drives to check Theorem 1: all maximal interleavings terminate in the
// same final state.  RunConcurrent executes the network with real
// goroutines over a channel.Transport — the in-process network by
// default, or a socket mesh — the "real parallel" version that the
// mechanical transformation targets.  RunWorker runs one rank of such
// a network in this process, its peers elsewhere, on the same
// supervised backend.  That backend receives one way on every
// transport: take a value that is there, flush, register as blocked
// (exact deadlock detection), and wait inside the endpoint, which polls
// before it parks.
//
// Processes are functions of a Ctx; they must not share memory (the
// scheduler cannot enforce this, but the schedule explorer in
// internal/explore detects violations by exhibiting diverging final
// states).
package sched

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/channel"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Proc is one deterministic process.  Its return value is the process's
// final state for determinacy comparison.
type Proc[T, R any] func(ctx *Ctx[T]) R

// Ctx gives a process access to its identity and its channels.
type Ctx[T any] struct {
	id, p int
	ops   ops[T]
	// col, bytes and stats instrument the communication actions
	// (Options.Collector / MsgBytes / ChanStats).  A nil col or stats is
	// the disabled fast path: one predictable branch, no calls, no
	// allocations.
	col   *obs.Collector
	bytes func(T) int
	stats *channel.NetStats
}

// ops abstracts the execution backends.
type ops[T any] interface {
	send(from, to int, v T)
	recv(from, to int) T
	step(id int, name string)
	// flush pushes any transport-buffered outbound messages of rank id
	// to the wire; a no-op on backends with synchronous delivery.
	flush(id int)
}

// ID returns the process's rank, in [0, P).
func (c *Ctx[T]) ID() int { return c.id }

// P returns the number of processes in the network.
func (c *Ctx[T]) P() int { return c.p }

// Send sends v on the channel from this process to process `to`.  It
// never blocks: channels have infinite slack.
func (c *Ctx[T]) Send(to int, v T) {
	if to < 0 || to >= c.p {
		panic(fmt.Sprintf("sched: send to process %d out of range [0,%d)", to, c.p))
	}
	c.ops.send(c.id, to, v)
	if c.stats != nil {
		c.stats.RecordSend(c.id, to)
	}
	if c.col != nil {
		n := 0
		if c.bytes != nil {
			n = c.bytes(v)
		}
		c.col.CountSend(c.id, n)
	}
}

// Recv receives the next value on the channel from process `from` to
// this process, blocking until one is available.
func (c *Ctx[T]) Recv(from int) T {
	if from < 0 || from >= c.p {
		panic(fmt.Sprintf("sched: recv from process %d out of range [0,%d)", from, c.p))
	}
	v := c.ops.recv(from, c.id)
	if c.stats != nil {
		c.stats.RecordRecv(from, c.id)
	}
	if c.col != nil {
		n := 0
		if c.bytes != nil {
			n = c.bytes(v)
		}
		c.col.CountRecv(c.id, n)
	}
	return v
}

// Step marks a named local-computation action.  In controlled runs it
// is an interleaving point; it has no semantic effect.
func (c *Ctx[T]) Step(name string) {
	c.ops.step(c.id, name)
	if c.col != nil {
		c.col.CountStep(c.id)
	}
}

// Flush pushes any transport-buffered outbound messages of this process
// to the wire.  On in-process backends delivery is synchronous and this
// is free; on socket transports it seals the coalesced frames queued
// for each neighbour into one write.  The runtime flushes
// automatically before a process blocks in Recv and when it terminates,
// so Flush is never needed for correctness — mesh operations call it at
// the end of their send sections so each exchange phase reaches the
// wire as a single write per neighbour.
func (c *Ctx[T]) Flush() { c.ops.flush(c.id) }

// ErrDeadlock is returned by RunControlled and RunConcurrent when no
// process can make progress but not all have terminated — i.e. the
// interleaving is maximal yet the network hangs.  Well-formed
// transformations of SSP programs never deadlock (all sends precede the
// matching receives).
var ErrDeadlock = errors.New("sched: deadlock: all unfinished processes are blocked on empty channels")

// ErrStall is returned by RunConcurrent's watchdog when the network
// performed no communication action for a full StallTimeout window even
// though not every unfinished process was provably blocked — e.g. a
// sender delayed indefinitely by fault injection.
var ErrStall = errors.New("sched: stall: no communication progress within the watchdog window")

// BlockedProc identifies one process blocked on an empty channel: Rank
// is waiting to receive on the channel From -> Rank.
type BlockedProc struct {
	Rank, From int
}

// DeadlockError is the diagnostic error produced when the concurrent
// supervisor aborts a hung run.  It names every blocked rank and the
// empty channel it waits on, so the wait-for structure is visible.  It
// unwraps to ErrDeadlock (or ErrStall when the stall watchdog, rather
// than exact all-blocked detection, raised it).
type DeadlockError struct {
	// Blocked lists the processes waiting on empty channels, in rank
	// order.
	Blocked []BlockedProc
	// Unfinished is the number of processes that had not terminated.
	Unfinished int
	// Pending is the total number of undelivered values in the network
	// at detection time.
	Pending int
	// Stalled marks a watchdog timeout (some unfinished process was not
	// observably blocked, but nothing moved for a full window).
	Stalled bool
}

// Error implements error.
func (e *DeadlockError) Error() string {
	var waits []string
	for _, b := range e.Blocked {
		waits = append(waits, fmt.Sprintf("P%d waits on empty channel P%d->P%d", b.Rank, b.From, b.Rank))
	}
	kind := "deadlock"
	if e.Stalled {
		kind = "stall"
	}
	return fmt.Sprintf("sched: %s: %d unfinished processes, %d undelivered messages; %s",
		kind, e.Unfinished, e.Pending, strings.Join(waits, ", "))
}

// Unwrap lets errors.Is(err, ErrDeadlock) / errors.Is(err, ErrStall)
// classify supervisor aborts.
func (e *DeadlockError) Unwrap() error {
	if e.Stalled {
		return ErrStall
	}
	return ErrDeadlock
}

// wrapPanic converts a recovered panic value into the supervisor's
// process-failure error.  Error panic values are wrapped with %w so
// injected faults (e.g. fault.Crash) stay visible to errors.As through
// the runtime layers.
func wrapPanic(id int, r any) error {
	if err, ok := r.(error); ok {
		return fmt.Errorf("sched: process %d panicked: %w", id, err)
	}
	return fmt.Errorf("sched: process %d panicked: %v", id, r)
}

// request kinds exchanged between process coroutines and the controller.
type reqKind int

const (
	reqSend reqKind = iota
	reqRecv
	reqStep
	reqDone
)

type request[T any] struct {
	kind reqKind
	peer int
	val  T
	tag  string
	err  error // for reqDone: non-nil if the process panicked
}

type pstate[T any] struct {
	req    chan request[T]
	resume chan T
	// pending holds the process's outstanding request by value (a
	// pointer here would heap-allocate on every action).
	pending    request[T]
	hasPending bool
	done       bool
	blocked    bool // diagnostic: last scheduling pass found it disabled
}

// controlled is the cooperative backend handed to process Ctxs.
type controlled[T any] struct {
	ps      []*pstate[T]
	tag     func(T) string
	tracing bool // only render message tags when a trace recorder wants them
}

func (b *controlled[T]) send(from, to int, v T) {
	var tg string
	if b.tracing {
		tg = b.tag(v)
	}
	b.ps[from].req <- request[T]{kind: reqSend, peer: to, val: v, tag: tg}
	<-b.ps[from].resume
}

func (b *controlled[T]) recv(from, to int) T {
	b.ps[to].req <- request[T]{kind: reqRecv, peer: from}
	return <-b.ps[to].resume
}

func (b *controlled[T]) step(id int, name string) {
	b.ps[id].req <- request[T]{kind: reqStep, tag: name}
	<-b.ps[id].resume
}

// flush is a no-op: the controlled backend delivers synchronously.
func (b *controlled[T]) flush(id int) {}

// PendingOp describes the communication action an enabled process
// will perform when picked — the controlled scheduler's enabled-set
// introspection, consumed by OpPolicy implementations (the schedule
// explorer needs to know *what* each candidate would do, not just that
// it can act).
type PendingOp struct {
	// Rank is the process that would act.
	Rank int
	// Kind is the action class: trace.Step, trace.Send, or trace.Recv.
	Kind trace.Kind
	// Peer is the other endpoint for Send/Recv, -1 for Step.
	Peer int
	// Tag is the step name for Step actions.  For Send it carries the
	// rendered message only when the run is tracing (Options.Trace set);
	// it is empty otherwise, and always empty for Recv.
	Tag string
}

// String renders the op for trace output.
func (o PendingOp) String() string {
	switch o.Kind {
	case trace.Send:
		return fmt.Sprintf("P%d send->P%d", o.Rank, o.Peer)
	case trace.Recv:
		return fmt.Sprintf("P%d recv<-P%d", o.Rank, o.Peer)
	default:
		if o.Tag != "" {
			return fmt.Sprintf("P%d step %q", o.Rank, o.Tag)
		}
		return fmt.Sprintf("P%d %s", o.Rank, o.Kind)
	}
}

// OpPolicy is an optional Policy extension: when the policy passed to
// RunControlled implements it, the scheduler calls PickOp with the
// pending operation of every enabled process (ops[i] describes
// enabled[i]) instead of Pick.  Policies that do not need op
// introspection pay nothing — the ops slice is only built when the
// policy asks for it.
type OpPolicy interface {
	Policy
	PickOp(enabled []int, ops []PendingOp, step int) int
}

// Options configures a controlled run.
type Options[T any] struct {
	// Trace, if non-nil, records every action of the interleaving.
	// RunConcurrent serialises concurrent Adds internally (trace.Safe),
	// so a plain Recorder is accepted by both executors.
	Trace *trace.Recorder
	// Collector, if non-nil, receives per-rank counters for every
	// communication action (sends, receives, steps, blocks, estimated
	// bytes) — the observability seam.  A nil collector adds no
	// overhead: the hot paths take one branch and allocate nothing.
	Collector *obs.Collector
	// MsgBytes estimates a message's payload size in bytes for the
	// collector's byte counters; nil counts zero bytes per message.
	MsgBytes func(T) int
	// ChanStats, if non-nil, records every completed send and receive
	// per channel, with each channel's queue high-water mark.  Its P
	// must match the run's.  Nil costs one branch per action.
	ChanStats *channel.NetStats
	// Tag renders a message for tracing; defaults to fmt.Sprint.
	Tag func(T) string
	// MaxActions aborts runs exceeding this many actions (0 = no limit);
	// a backstop against non-terminating networks in tests.
	MaxActions int
	// StallTimeout, if positive, arms RunConcurrent's stall watchdog: if
	// no communication action completes within a full window, the run is
	// aborted with a diagnostic DeadlockError instead of hanging.  True
	// deadlocks (every unfinished process blocked on an empty channel)
	// are detected exactly and immediately regardless of this setting.
	// The timeout must comfortably exceed both the longest local
	// computation between communication actions and any injected message
	// delay, or healthy runs will be reported as stalled.
	StallTimeout time.Duration
	// Transport, if non-nil, supplies the message substrate for
	// RunConcurrent in place of the default in-process channel network —
	// e.g. a loopback socket mesh (channel.NewLoopbackMesh).  Its P()
	// must match the number of processes.  The caller retains ownership:
	// RunConcurrent neither closes nor modifies it, so one transport can
	// carry run after run.  Ignored by RunControlled, which by
	// construction simulates the network sequentially, and by RunWorker,
	// which takes its transport as an argument.
	Transport channel.Transport[T]
}

// RunControlled executes the processes under the given interleaving
// policy and returns their final states.  The run is fully
// deterministic given the policy.  It returns ErrDeadlock if the
// maximal interleaving leaves unfinished processes blocked.
func RunControlled[T, R any](procs []Proc[T, R], pol Policy, opt Options[T]) ([]R, error) {
	p := len(procs)
	if p == 0 {
		return nil, nil
	}
	if opt.Tag == nil {
		opt.Tag = func(v T) string { return fmt.Sprint(v) }
	}
	back := &controlled[T]{ps: make([]*pstate[T], p), tag: opt.Tag, tracing: opt.Trace != nil}
	results := make([]R, p)
	for i := range back.ps {
		back.ps[i] = &pstate[T]{
			req:    make(chan request[T]),
			resume: make(chan T),
		}
	}
	// Spawn coroutines; each waits for an initial resume before touching
	// user code, so exactly one process ever runs at a time.  A panic in
	// user code is captured and surfaced as a run error rather than
	// crashing the whole scheduler.
	for i := 0; i < p; i++ {
		i := i
		ctx := &Ctx[T]{id: i, p: p, ops: back, col: opt.Collector, bytes: opt.MsgBytes, stats: opt.ChanStats}
		go func() {
			<-back.ps[i].resume
			done := request[T]{kind: reqDone}
			defer func() {
				if r := recover(); r != nil {
					done.err = wrapPanic(i, r)
				}
				back.ps[i].req <- done
			}()
			results[i] = procs[i](ctx)
		}()
	}

	eps := endpoints(channel.NewQueueNet[T](p), func(int) bool { return true })
	var zero T
	var failure error
	// advance lets process i run to its next request and records it.
	advance := func(i int, v T) {
		back.ps[i].resume <- v
		r := <-back.ps[i].req
		if r.kind == reqDone {
			back.ps[i].done = true
			back.ps[i].hasPending = false
			if r.err != nil && failure == nil {
				failure = r.err
			}
			opt.Trace.Add(i, trace.Done, -1, "")
			return
		}
		back.ps[i].pending = r
		back.ps[i].hasPending = true
		if r.kind == reqRecv && eps[r.peer*p+i].Len() == 0 {
			opt.Trace.Add(i, trace.Block, r.peer, "")
			opt.Collector.CountBlock(i)
		}
	}

	// Bring every process to its first request, in rank order.
	for i := 0; i < p; i++ {
		advance(i, zero)
	}

	enabled := make([]int, 0, p)
	actions := 0
	for {
		enabled = enabled[:0]
		allDone := true
		for i, ps := range back.ps {
			if ps.done {
				continue
			}
			allDone = false
			if !ps.hasPending {
				continue
			}
			r := &ps.pending
			if r.kind == reqRecv && eps[r.peer*p+i].Len() == 0 {
				ps.blocked = true
				continue
			}
			ps.blocked = false
			enabled = append(enabled, i)
		}
		if allDone {
			return results, failure
		}
		if len(enabled) == 0 {
			if failure != nil {
				// A panicked process explains the stall better than a
				// generic deadlock report.
				return results, failure
			}
			// Unblocking the coroutines is impossible; they leak by
			// design in this error path (tests construct few of them).
			// Report the wait-for relation so the cycle is visible.
			var waits []string
			for i, ps := range back.ps {
				if ps.done || !ps.hasPending {
					continue
				}
				if r := ps.pending; r.kind == reqRecv {
					waits = append(waits, fmt.Sprintf("P%d waits on P%d", i, r.peer))
				}
			}
			return results, fmt.Errorf("%w (after %d actions; %s)",
				ErrDeadlock, actions, strings.Join(waits, ", "))
		}
		var pick int
		if op, ok := pol.(OpPolicy); ok {
			ops := make([]PendingOp, len(enabled))
			for k, i := range enabled {
				r := &back.ps[i].pending
				po := PendingOp{Rank: i, Peer: -1, Tag: r.tag}
				switch r.kind {
				case reqSend:
					po.Kind, po.Peer = trace.Send, r.peer
				case reqRecv:
					po.Kind, po.Peer, po.Tag = trace.Recv, r.peer, ""
				case reqStep:
					po.Kind = trace.Step
				}
				ops[k] = po
			}
			pick = op.PickOp(enabled, ops, actions)
		} else {
			pick = pol.Pick(enabled, actions)
		}
		if !contains(enabled, pick) {
			panic(fmt.Sprintf("sched: policy %q picked disabled process %d from %v", pol.Name(), pick, enabled))
		}
		ps := back.ps[pick]
		r := ps.pending
		ps.hasPending = false
		switch r.kind {
		case reqSend:
			eps[pick*p+r.peer].Send(r.val)
			opt.Trace.Add(pick, trace.Send, r.peer, r.tag)
			advance(pick, zero)
		case reqRecv:
			v := eps[r.peer*p+pick].Recv()
			if opt.Trace != nil {
				opt.Trace.Add(pick, trace.Recv, r.peer, opt.Tag(v))
			}
			advance(pick, v)
		case reqStep:
			opt.Trace.Add(pick, trace.Step, -1, r.tag)
			advance(pick, zero)
		}
		actions++
		if opt.MaxActions > 0 && actions > opt.MaxActions {
			return results, fmt.Errorf("sched: exceeded MaxActions=%d; network may not terminate", opt.MaxActions)
		}
	}
}

// endpoints builds a run's endpoint table over net, index from*p+to:
// every channel with a local end, and nil where neither end is local (a
// per-rank transport has no such channel).
func endpoints[T any](net channel.Transport[T], local func(rank int) bool) []channel.Endpoint[T] {
	p := net.P()
	eps := make([]channel.Endpoint[T], p*p)
	for from := 0; from < p; from++ {
		for to := 0; to < p; to++ {
			if !local(from) && !local(to) {
				continue
			}
			eps[from*p+to] = net.Chan(from, to)
		}
	}
	return eps
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// abortPanic is the panic value used to unwind a process goroutine when
// the supervisor aborts the run (deadlock or stall).  It is not a
// process failure; the recovery wrapper swallows it.
type abortPanic struct{}

// concurrent is the free-running goroutine backend, supervised: it
// tracks which processes are blocked on which empty channels, detects
// the all-blocked deadlock condition exactly at the moment it arises,
// and can abort the whole network so the run returns a diagnostic error
// instead of hanging.  It runs the processes of the local ranks: all of
// them under RunConcurrent, one under RunWorker.  A remote rank is
// never done and never waiting, so the exact detector, which needs every
// unfinished rank blocked, never fires in a worker.
type concurrent[T any] struct {
	net channel.Transport[T]
	// eps is this run's endpoint table (see endpoints).
	eps []channel.Endpoint[T]

	// mu guards waitOn, done, failed and abort.  No send takes it; a
	// receive takes it only to register and unregister a wait.
	mu sync.Mutex
	// waitOn[i] is the peer rank process i is blocked receiving from, or
	// -1 when i is not blocked in a receive.
	waitOn []int
	done   []bool
	nDone  int
	// sent and taken count, per channel (index from*p+to), the sends
	// that have returned and the receives that have completed.  Their
	// difference is what the deadlock detector calls a non-empty
	// channel: a message that exists — in a queue, a coalescer or a
	// socket buffer — and will reach its receiver.  A blocked receive
	// bumps taken and clears waitOn in one critical section, so the
	// detector never sees a rank both waiting and already served.
	sent, taken []atomic.Int64
	// failed is the first process-panic error; abort is the reason the
	// supervisor tore the run down (deadlock/stall diagnostic).
	failed error
	abort  error
	// aborted is a lock-free mirror of abort != nil, checked on the hot
	// paths (send/step) without taking mu.
	aborted atomic.Bool
	// progress counts completed communication actions, for the stall
	// watchdog.
	progress atomic.Uint64

	// tr serialises trace recording across the process goroutines; nil
	// when tracing is off (SafeRecorder methods are nil-safe).
	tr  *trace.SafeRecorder
	tag func(T) string
	// col counts blocked receives (the other counters live in Ctx).
	col *obs.Collector
}

func newConcurrent[T any](net channel.Transport[T], local func(rank int) bool, opt Options[T]) *concurrent[T] {
	p := net.P()
	b := &concurrent[T]{
		net:    net,
		eps:    endpoints(net, local),
		waitOn: make([]int, p),
		done:   make([]bool, p),
		sent:   make([]atomic.Int64, p*p),
		taken:  make([]atomic.Int64, p*p),
		tr:     trace.Safe(opt.Trace),
		tag:    opt.Tag,
		col:    opt.Collector,
	}
	for i := range b.waitOn {
		b.waitOn[i] = -1
	}
	return b
}

// ch is the index of the channel from -> to in eps, sent and taken.
func (b *concurrent[T]) ch(from, to int) int { return from*len(b.waitOn) + to }

func (b *concurrent[T]) send(from, to int, v T) {
	if b.aborted.Load() {
		panic(abortPanic{})
	}
	// Recorded before the message exists: a polling receiver can have it
	// (and record the receive) the instant Send makes it visible, and
	// Send takes ownership of v.
	if b.tr != nil {
		b.tr.Add(from, trace.Send, to, b.tag(v))
	}
	ch := b.ch(from, to)
	b.eps[ch].Send(v)
	b.sent[ch].Add(1)
	b.progress.Add(1)
}

// recv is the runtime's one receive, the same on every transport.  A
// value that is already there is taken at once.  Otherwise the rank
// pushes out its own coalesced frames — they may be exactly what its
// peers need before they can send — registers as blocked, which runs
// the exact deadlock check, and waits inside the endpoint, which polls
// before it parks.  The supervisor's abort reaches it there through
// the transport.
func (b *concurrent[T]) recv(from, to int) T {
	if b.aborted.Load() {
		panic(abortPanic{})
	}
	ch := b.ch(from, to)
	ep := b.eps[ch]
	v, ok := ep.TryRecv()
	if ok {
		b.taken[ch].Add(1)
	} else {
		b.net.Flush(to)
		b.mu.Lock()
		b.block(from, to)
		aborted := b.abort != nil
		b.mu.Unlock()
		if aborted {
			panic(abortPanic{})
		}
		v = b.park(ep, ch, to)
	}
	b.progress.Add(1)
	if b.tr != nil {
		b.tr.Add(to, trace.Recv, from, b.tag(v))
	}
	return v
}

// park waits in the endpoint for the value on channel ch.  However the
// wait ends, with a value or with the panic of an aborted transport,
// rank to stops counting as blocked before it runs any other code: a
// rank unwinding from an abort that still looked parked could let
// another rank's finish report a deadlock in place of the abort.  The
// receive counts as taken only when a value came.
func (b *concurrent[T]) park(ep channel.Endpoint[T], ch, to int) (v T) {
	got := false
	defer func() {
		b.mu.Lock()
		b.waitOn[to] = -1
		if got {
			b.taken[ch].Add(1)
		}
		b.mu.Unlock()
	}()
	v = ep.Recv()
	got = true
	return v
}

// block registers process `to` as blocked on the channel from -> to and
// runs the exact deadlock check: if every other unfinished process
// already is blocked, the network can never move again — report the
// deadlock now rather than hang.  A failed transport ends the run the
// same way.  Called with mu held.
func (b *concurrent[T]) block(from, to int) {
	b.waitOn[to] = from
	b.col.CountBlock(to)
	if err := b.net.Err(); err != nil {
		b.abortLocked(fmt.Errorf("sched: %w", &channel.TransportError{Err: err}))
		return
	}
	if d := b.deadlockLocked(); d != nil {
		b.abortLocked(d)
	}
}

func (b *concurrent[T]) step(id int, name string) {
	if b.aborted.Load() {
		panic(abortPanic{})
	}
	b.progress.Add(1)
	if b.tr != nil {
		b.tr.Add(id, trace.Step, -1, name)
	}
}

// flush seals rank id's coalesced outbound frames into the wire.  On
// the in-process network Flush is a no-op method call.
func (b *concurrent[T]) flush(id int) { b.net.Flush(id) }

// markDone records a process's termination (normal or by panic) and
// re-checks the deadlock condition: the remaining processes may now all
// be blocked on channels nobody will ever fill.
func (b *concurrent[T]) markDone(id int, err error) {
	// Termination flush: a finished process never blocks in Recv again,
	// so this is the last chance for its buffered frames to reach peers
	// still waiting on them.
	b.net.Flush(id)
	b.mu.Lock()
	b.done[id] = true
	b.nDone++
	if err != nil && b.failed == nil {
		b.failed = err
	}
	if d := b.deadlockLocked(); d != nil {
		b.abortLocked(d)
	}
	b.mu.Unlock()
	if b.tr != nil {
		b.tr.Add(id, trace.Done, -1, "")
	}
}

// abortLocked tears the run down: the transport's abort wakes the
// parked receivers, whose *TransportError the process wrapper counts
// as the teardown, and every later communication action panics out of
// the process.  Callers must not pass nil.
func (b *concurrent[T]) abortLocked(reason error) {
	if b.abort != nil {
		return
	}
	b.abort = reason
	b.aborted.Store(true)
	b.net.Abort(reason)
}

// deadlockLocked reports the network's exact deadlock condition: every
// unfinished process is blocked receiving from a channel on which
// nothing is sent that has not been received.  No such process can ever
// be re-enabled (only unfinished processes could send, and all of them
// are blocked), so this detection has no false positives and no timing
// dependence — on any transport: a counted message has left its
// sender's Send, and senders flush before they block and when they
// finish, so it will arrive.  A message parked on a channel nobody
// waits on does not hide a deadlock of the others.  Returns nil when
// some process is running, some awaited channel has a value, or
// everything finished.
func (b *concurrent[T]) deadlockLocked() *DeadlockError {
	// Detection pass first, allocation-free: this runs every time any
	// receiver blocks, so the common "somebody is still running" answer
	// must not heap-allocate (the steady-state message path is measured
	// at zero allocations per step).
	unfinished := 0
	for i, from := range b.waitOn {
		if b.done[i] {
			continue
		}
		if from < 0 {
			return nil // process i is running or mid-send
		}
		if ch := b.ch(from, i); b.sent[ch].Load() > b.taken[ch].Load() {
			return nil // process i is about to wake
		}
		unfinished++
	}
	if unfinished == 0 {
		return nil // all done
	}
	// Confirmed deadlock: now build the diagnostic (cold path).
	blocked := make([]BlockedProc, 0, unfinished)
	for i, from := range b.waitOn {
		if !b.done[i] {
			blocked = append(blocked, BlockedProc{Rank: i, From: from})
		}
	}
	return &DeadlockError{
		Blocked:    blocked,
		Unfinished: len(blocked),
		Pending:    b.net.Pending(),
	}
}

// watchStalls samples the progress counter; if nothing moved for a full
// window while unfinished processes remain, it aborts with a stall
// diagnostic.  This is the heuristic complement to the exact deadlock
// detector, for hangs it cannot see: a sender sleeping in an injected
// delay, or a process that will never reach its next action.
func (b *concurrent[T]) watchStalls(timeout time.Duration, stop <-chan struct{}) {
	tick := time.NewTicker(timeout)
	defer tick.Stop()
	last := b.progress.Load()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		cur := b.progress.Load()
		b.mu.Lock()
		if b.abort != nil || b.nDone == len(b.done) {
			b.mu.Unlock()
			return
		}
		if cur == last {
			var blocked []BlockedProc
			unfinished := 0
			for i, from := range b.waitOn {
				if b.done[i] {
					continue
				}
				unfinished++
				if from >= 0 {
					blocked = append(blocked, BlockedProc{Rank: i, From: from})
				}
			}
			b.abortLocked(&DeadlockError{
				Blocked:    blocked,
				Unfinished: unfinished,
				Pending:    b.net.Pending(),
				Stalled:    true,
			})
			b.mu.Unlock()
			return
		}
		last = cur
		b.mu.Unlock()
	}
}

// RunConcurrent executes the processes as real goroutines over
// concurrent unbounded channels and returns their final states.  The
// Go runtime chooses the interleaving; by Theorem 1 the results equal
// those of any controlled run of the same (well-formed) network.  If
// opt.Trace is non-nil it records one legal interleaving order.
//
// The execution is supervised: a panic in any process is recovered and
// returned as an error (wrapping the panic value when it is an error)
// instead of crashing the program, and a deadlocked network — every
// unfinished process blocked on an empty channel — is torn down with a
// diagnostic DeadlockError naming the blocked ranks and empty channels
// instead of hanging.  On any error the returned results are partial
// and should not be used.  One limitation: a process that loops forever
// without performing any Send/Recv/Step action cannot be interrupted;
// arm Options.StallTimeout to at least get the run diagnosed (the
// return still waits for such a process).
func RunConcurrent[T, R any](procs []Proc[T, R], opt Options[T]) ([]R, error) {
	p := len(procs)
	if p == 0 {
		return nil, nil
	}
	net := opt.Transport
	if net == nil {
		net = channel.NewChanNet[T](p)
	} else if net.P() != p {
		panic(fmt.Sprintf("sched: transport built for %d processes, run has %d", net.P(), p))
	}
	return supervise(net, procs, opt)
}

// RunWorker executes rank `rank` of a P-process network whose channels
// are carried by tr — one call per OS process, with tr typically built
// by channel.DialMesh.  By Theorem 1 the rank's result is bitwise
// identical to the same rank's result under RunControlled or
// RunConcurrent.
//
// The rank runs on RunConcurrent's supervised backend with its peers
// elsewhere, so it flushes, fails and aborts exactly as a rank of a
// RunConcurrent run does, and Options.StallTimeout arms the same
// watchdog.  No process sees the whole network, so deadlocks are not
// detected exactly here; the watchdog, or the launcher's timeout,
// bounds them.  A panic in the process body (including a
// TransportError from a failed wire) is returned as an error.  The
// caller retains ownership of tr and should Close it after the result
// is consumed.
func RunWorker[T, R any](rank int, tr channel.Transport[T], proc Proc[T, R], opt Options[T]) (res R, err error) {
	p := tr.P()
	if rank < 0 || rank >= p {
		return res, fmt.Errorf("sched: worker rank %d out of range (P=%d)", rank, p)
	}
	procs := make([]Proc[T, R], p)
	procs[rank] = proc
	results, err := supervise(tr, procs, opt)
	return results[rank], err
}

// supervise runs the non-nil processes of procs — the local ranks — on
// the concurrent backend over net, and returns every result slot with
// the run's error.
func supervise[T, R any](net channel.Transport[T], procs []Proc[T, R], opt Options[T]) ([]R, error) {
	if opt.Tag == nil {
		opt.Tag = func(v T) string { return fmt.Sprint(v) }
	}
	back := newConcurrent(net, func(r int) bool { return procs[r] != nil }, opt)
	p := len(procs)
	results := make([]R, p)
	var wg sync.WaitGroup
	for i, proc := range procs {
		if proc == nil {
			continue
		}
		ctx := &Ctx[T]{id: i, p: p, ops: back, col: opt.Collector, bytes: opt.MsgBytes, stats: opt.ChanStats}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var failure error
			defer func() {
				if r := recover(); r != nil && !back.teardown(r) {
					failure = wrapPanic(i, r)
				}
				back.markDone(i, failure)
			}()
			results[i] = proc(ctx)
		}()
	}
	if opt.StallTimeout > 0 {
		stop := make(chan struct{})
		defer close(stop)
		go back.watchStalls(opt.StallTimeout, stop)
	}
	wg.Wait()
	// A panicked process explains a subsequent teardown better than the
	// deadlock it caused, so it takes precedence — mirroring
	// RunControlled's error priority.
	back.mu.Lock()
	failed, aborted := back.failed, back.abort
	back.mu.Unlock()
	if failed != nil {
		return results, failed
	}
	if aborted != nil {
		return results, aborted
	}
	return results, nil
}

// teardown reports whether a recovered panic is the supervisor's abort
// unwinding a process rather than a failure of it: abortPanic, or the
// *TransportError with which the aborted transport woke a parked
// receiver.
func (b *concurrent[T]) teardown(r any) bool {
	if _, ok := r.(abortPanic); ok {
		return true
	}
	_, ok := r.(*channel.TransportError)
	return ok && b.aborted.Load()
}
