package sched

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/channel"
)

// runBounded fails the test if RunConcurrent does not return within the
// deadline — the "bounded time" half of the deadlock acceptance
// criterion.
func runBounded(t *testing.T, d time.Duration, procs []Proc[int, int], opt Options[int]) ([]int, error) {
	t.Helper()
	type outcome struct {
		res []int
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		res, err := RunConcurrent(procs, opt)
		ch <- outcome{res, err}
	}()
	select {
	case o := <-ch:
		return o.res, o.err
	case <-time.After(d):
		t.Fatalf("RunConcurrent still hung after %v", d)
		return nil, nil
	}
}

// TestConcurrentPartialDeadlock checks detection when only a subset
// hangs: the network deadlocks only once the healthy processes have
// terminated and can no longer send.
func TestConcurrentPartialDeadlock(t *testing.T) {
	procs := []Proc[int, int]{
		func(ctx *Ctx[int]) int { ctx.Send(1, 7); return 0 }, // healthy
		func(ctx *Ctx[int]) int { return ctx.Recv(0) + ctx.Recv(2) },
		func(ctx *Ctx[int]) int { return ctx.Recv(1) }, // 1 and 2 wait on each other
	}
	_, err := runBounded(t, 10*time.Second, procs, Options[int]{})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("not a *DeadlockError: %v", err)
	}
	if de.Unfinished != 2 {
		t.Fatalf("expected 2 unfinished processes, got %+v", de)
	}
}

// TestConcurrentPanicErrorValueUnwraps: when the panic value is an
// error, the supervisor wraps it so errors.Is sees through the layers —
// the contract fault injection relies on.
func TestConcurrentPanicErrorValueUnwraps(t *testing.T) {
	sentinel := errors.New("injected failure")
	procs := []Proc[int, int]{
		func(ctx *Ctx[int]) int { panic(sentinel) },
	}
	_, err := RunConcurrent(procs, Options[int]{})
	if !errors.Is(err, sentinel) {
		t.Fatalf("panic error value not wrapped: %v", err)
	}
}

// TestQueueRecvPanicSurfacesAsError: the sequential Queue's empty-recv
// panic message (a programming-error diagnostic) travels through the
// concurrent supervisor as an ordinary error.
func TestQueueRecvPanicSurfacesAsError(t *testing.T) {
	procs := []Proc[int, int]{
		func(ctx *Ctx[int]) int {
			q := channel.NewQueue[int]()
			return q.Recv() // panics: empty queue
		},
	}
	_, err := RunConcurrent(procs, Options[int]{})
	if err == nil {
		t.Fatal("Queue.Recv panic not surfaced")
	}
	if !strings.Contains(err.Error(), "receive from empty channel in sequential execution") {
		t.Fatalf("Queue.Recv panic message lost: %v", err)
	}
}

// TestConcurrentSurvivorsComplete: after one process panics, processes
// that do not depend on it still finish and their results are recorded.
func TestConcurrentSurvivorsComplete(t *testing.T) {
	procs := []Proc[int, int]{
		func(ctx *Ctx[int]) int { panic("dead") },
		func(ctx *Ctx[int]) int { ctx.Send(2, 5); return 1 },
		func(ctx *Ctx[int]) int { return ctx.Recv(1) },
	}
	res, err := runBounded(t, 10*time.Second, procs, Options[int]{})
	if err == nil || !strings.Contains(err.Error(), "process 0 panicked") {
		t.Fatalf("want rank-0 panic error, got %v", err)
	}
	// Results are documented as unusable on error, but the independent
	// pair must at least have terminated for RunConcurrent to return.
	if res == nil {
		t.Fatal("no result slice returned")
	}
}

// TestStallWatchdogQuietOnHealthyRuns: the watchdog must not fire while
// the network keeps communicating.
func TestStallWatchdogQuietOnHealthyRuns(t *testing.T) {
	res, err := RunConcurrent(pingPong(200), Options[int]{StallTimeout: 2 * time.Second})
	if err != nil {
		t.Fatalf("healthy run aborted: %v", err)
	}
	if len(res) != 2 {
		t.Fatalf("bad results: %v", res)
	}
}
