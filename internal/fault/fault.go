// Package fault provides deterministic fault injection for the
// parallel runtime: process crashes at a chosen (rank, step), seeded
// message-delivery delays for the concurrent runtime, and
// checkpoint-file corruption.
//
// Everything is seeded or exactly parameterised, so every failure
// reproduces bit-for-bit.  That matters because the paper's Theorem 1
// (every maximal fair interleaving of a well-formed network reaches the
// same final state) turns determinacy into an exact oracle for fault
// tolerance: a run that crashes, recovers from a checkpoint, and
// resumes must equal an uninterrupted run exactly, so recovery
// correctness is tested by bitwise comparison, not by statistical
// tolerance.
//
// The injectors compose with the runtime through its existing seams:
// Crash panics surface through the sched supervisor as errors wrapping
// *Crash; DelaySends decorates the channel.Transport a run is given
// (sched.Options.Transport, mesh.Options.Transport).
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/channel"
)

// Crash is the panic value of an injected process crash.  It is an
// error, so the sched supervisor wraps it with %w and errors.As can
// recognise an injected crash behind any number of runtime layers.
type Crash struct {
	Rank, Step int
}

// Error implements error.
func (c *Crash) Error() string {
	return fmt.Sprintf("fault: injected crash of rank %d at step %d", c.Rank, c.Step)
}

// AsCrash reports whether err wraps an injected *Crash and returns it.
func AsCrash(err error) (*Crash, bool) {
	var c *Crash
	if errors.As(err, &c) {
		return c, true
	}
	return nil, false
}

// Injector crashes one chosen rank the first time it reaches a chosen
// step.  It fires exactly once per Injector: after a recovery restart
// the same (rank, step) passes unharmed, which is precisely the
// transient-fault model a checkpoint/restart runtime must survive.
// A nil *Injector is inert, so call sites need no guards.
type Injector struct {
	rank, step int
	fired      atomic.Bool
}

// NewCrash returns an injector that crashes `rank` when it begins step
// `step` (0-based).
func NewCrash(rank, step int) *Injector {
	return &Injector{rank: rank, step: step}
}

// Check panics with *Crash if (rank, step) matches an armed injector.
// Application step loops call it once per rank per step.
func (in *Injector) Check(rank, step int) {
	if in == nil {
		return
	}
	if rank == in.rank && step == in.step && in.fired.CompareAndSwap(false, true) {
		panic(&Crash{Rank: rank, Step: step})
	}
}

// Cancelled is the panic value of a cooperative job cancellation: the
// rank observed an armed Canceller at a step boundary and aborted.  It
// is an error wrapping the cancellation reason, so errors.Is(err,
// reason) sees through any number of runtime layers.
type Cancelled struct {
	Rank, Step int
	Reason     error
}

// Error implements error.
func (c *Cancelled) Error() string {
	return fmt.Sprintf("fault: rank %d cancelled at step %d: %v", c.Rank, c.Step, c.Reason)
}

// Unwrap exposes the cancellation reason.
func (c *Cancelled) Unwrap() error { return c.Reason }

// AsCancelled reports whether err wraps a *Cancelled and returns it.
func AsCancelled(err error) (*Cancelled, bool) {
	var c *Cancelled
	if errors.As(err, &c) {
		return c, true
	}
	return nil, false
}

// Canceller is a cooperative cancellation token for running archetype
// programs: the owner arms it with Cancel(reason), and every rank's
// step loop polls it via Check, which panics with *Cancelled — the
// same step-boundary seam Injector uses, so cancellation surfaces
// through the runtime supervisors as an ordinary error.  A nil
// *Canceller is inert, so call sites need no guards.
//
// Checks happen only at step boundaries, so a rank already blocked in
// a receive does not observe the token; pair the Canceller with a
// transport-level abort (e.g. channel.SocketTransport.Abort) when the
// run must terminate even from inside a blocking operation.
type Canceller struct {
	reason atomic.Pointer[error]
}

// NewCanceller returns an unarmed cancellation token.
func NewCanceller() *Canceller { return &Canceller{} }

// Cancel arms the token with a reason.  The first reason wins; later
// calls are no-ops, so racing cancel paths (timeout vs drain) are safe.
func (c *Canceller) Cancel(reason error) {
	if reason == nil {
		reason = errors.New("cancelled")
	}
	c.reason.CompareAndSwap(nil, &reason)
}

// Err returns the cancellation reason, or nil while unarmed.
func (c *Canceller) Err() error {
	if c == nil {
		return nil
	}
	if p := c.reason.Load(); p != nil {
		return *p
	}
	return nil
}

// Check panics with *Cancelled if the token is armed.  Application
// step loops call it once per rank per step, next to Injector.Check.
func (c *Canceller) Check(rank, step int) {
	if c == nil {
		return
	}
	if p := c.reason.Load(); p != nil {
		panic(&Cancelled{Rank: rank, Step: step, Reason: *p})
	}
}

// delayed wraps an endpoint so every send sleeps a seeded pseudo-random
// duration before delivering.  Per-channel FIFO order is untouched (the
// delay happens in the sender before the enqueue), so the fault stays
// inside the legal interleaving space of the infinite-slack model.
type delayed[T any] struct {
	channel.Endpoint[T]
	rng *rand.Rand
	max time.Duration
}

// Send implements channel.Endpoint.
func (d *delayed[T]) Send(v T) {
	// Single-writer channels: the sender owns d.rng, no lock needed.
	time.Sleep(time.Duration(d.rng.Int63n(int64(d.max) + 1)))
	d.Endpoint.Send(v)
}

// DelaySends returns tr with every delivery delayed by a seeded
// pseudo-random duration in [0, max].  Each Chan call starts the
// channel's own deterministic stream, derived from (seed, from, to), so
// every run over the decorated transport replays the same delays.  The
// caller keeps ownership of tr.
func DelaySends[T any](tr channel.Transport[T], seed int64, max time.Duration) channel.Transport[T] {
	if max <= 0 {
		panic("fault: DelaySends requires a positive max delay")
	}
	return delaySends[T]{Transport: tr, seed: seed, max: max}
}

type delaySends[T any] struct {
	channel.Transport[T]
	seed int64
	max  time.Duration
}

// Chan implements channel.Transport.
func (d delaySends[T]) Chan(from, to int) channel.Endpoint[T] {
	sub := d.seed ^ int64(from)*0x6C62272E07BB0142 ^ int64(to)*0x27D4EB2F165667C5
	return &delayed[T]{Endpoint: d.Transport.Chan(from, to), rng: rand.New(rand.NewSource(sub)), max: d.max}
}

// FlipByte corrupts the file at path by XOR-ing the byte at offset with
// 0xFF.  A negative offset counts back from the end of the file.
func FlipByte(path string, offset int64) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	if offset < 0 {
		offset += st.Size()
	}
	if offset < 0 || offset >= st.Size() {
		return fmt.Errorf("fault: flip offset %d outside file of %d bytes", offset, st.Size())
	}
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, offset); err != nil {
		return err
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b, offset); err != nil {
		return err
	}
	return f.Sync()
}

// Truncate cuts the file at path to n bytes; a negative n removes |n|
// bytes from the end.  It models a save interrupted mid-write.
func Truncate(path string, n int64) error {
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	if n < 0 {
		n += st.Size()
	}
	if n < 0 || n > st.Size() {
		return fmt.Errorf("fault: truncation to %d bytes outside file of %d bytes", n, st.Size())
	}
	return os.Truncate(path, n)
}
