package sched

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/obs"
)

// The runtime receives one way on every transport, so every property of
// the supervisor is asserted on every row of one table: the in-process
// network, loopback sockets over unix and tcp, and per-rank DialMesh
// transports driven by one RunWorker call per rank, as the ranks of a
// multi-process run are.  Theorem 1 says when a receiver looks at a
// channel cannot change what it reads; these tests say the same of where
// it waits.

// transportRow is one message substrate of the table.
type transportRow struct {
	name string
	// net builds the row's transport for p ranks; nil for worker rows.
	net func(p int) (channel.Transport[int], error)
	// worker rows run each rank with RunWorker over its own DialMesh
	// transport and close it when the rank returns, as a process exit
	// would.  They have no exact deadlock detector: no process sees the
	// whole network.
	worker bool
}

var transports = []transportRow{
	{name: "inproc", net: func(p int) (channel.Transport[int], error) { return channel.NewChanNet[int](p), nil }},
	{name: "unix", net: loopback("unix")},
	{name: "tcp", net: loopback("tcp")},
	{name: "dialmesh", worker: true},
}

func intWire() channel.Codec[int] {
	return channel.Codec[int]{
		Append: func(dst []byte, v int) []byte {
			return binary.LittleEndian.AppendUint64(dst, uint64(v))
		},
		Decode: func(src []byte) (int, error) {
			if len(src) != 8 {
				return 0, fmt.Errorf("payload %d bytes, want 8", len(src))
			}
			return int(binary.LittleEndian.Uint64(src)), nil
		},
	}
}

func loopback(network string) func(p int) (channel.Transport[int], error) {
	return func(p int) (channel.Transport[int], error) {
		return channel.NewLoopbackMesh(p, network, intWire(), channel.SocketOptions{})
	}
}

// dialMesh builds the p per-rank transports of a unix DialMesh.
func dialMesh(p int) ([]channel.Transport[int], error) {
	dir, err := os.MkdirTemp("", "sched")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir) // the bound sockets no longer need their names
	addrs := make([]string, p)
	for i := range addrs {
		addrs[i] = filepath.Join(dir, fmt.Sprintf("r%d.sock", i))
	}
	trs := make([]channel.Transport[int], p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := range trs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var tr *channel.SocketTransport[int]
			if tr, errs[r] = channel.DialMesh("unix", addrs, r, intWire(), channel.SocketOptions{}); errs[r] == nil {
				trs[r] = tr
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		for _, tr := range trs {
			if tr != nil {
				tr.Close()
			}
		}
		return nil, err
	}
	return trs, nil
}

// runOn runs procs on row and returns each rank's result and error; on a
// RunConcurrent row every rank reports the run's error.  When started is
// non-nil it receives, once the run's transports exist, a function that
// aborts all of them.  The run must end within 10 s.
func runOn(t *testing.T, row transportRow, procs []Proc[int, int], opt Options[int], started chan<- func(error)) ([]int, []error) {
	t.Helper()
	p := len(procs)
	var trs []channel.Transport[int]
	var err error
	if row.worker {
		trs, err = dialMesh(p)
	} else {
		var tr channel.Transport[int]
		tr, err = row.net(p)
		trs = []channel.Transport[int]{tr}
	}
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, tr := range trs {
			tr.Close()
		}
	}()
	if started != nil {
		started <- func(err error) {
			for _, tr := range trs {
				tr.Abort(err)
			}
		}
	}
	res, errs := make([]int, p), make([]error, p)
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		if !row.worker {
			opt.Transport = trs[0]
			var err error
			res, err = RunConcurrent(procs, opt)
			for r := range errs {
				errs[r] = err
			}
			return
		}
		var wg sync.WaitGroup
		for r := range procs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res[r], errs[r] = RunWorker(r, trs[r], procs[r], opt)
				trs[r].Close()
			}()
		}
		wg.Wait()
	}()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("run still hung after 10s")
	}
	return res, errs
}

// forEachTransport runs body as one subtest per row; rows that cannot
// host the property (skip) are left out.
func forEachTransport(t *testing.T, skip func(transportRow) bool, body func(t *testing.T, row transportRow)) {
	for _, row := range transports {
		if skip != nil && skip(row) {
			continue
		}
		t.Run(row.name, func(t *testing.T) { body(t, row) })
	}
}

// woken reports whether err carries a *TransportError: what a parked
// receiver is woken with when its transport fails or is aborted — never
// the diagnosis of a deadlock or stall.
func woken(err error) bool {
	var te *channel.TransportError
	return errors.As(err, &te)
}

// noDetector picks the rows without an exact deadlock detector.
func noDetector(row transportRow) bool { return row.worker }

// TestTransportPingPongMatchesControlled: twenty 500-round ping-pongs
// give the controlled run's results on every transport — the ping-pong
// is exactly the pattern in which a receiver is served while its peer
// runs the deadlock check.
func TestTransportPingPongMatchesControlled(t *testing.T) {
	want, err := RunControlled(pingPong(500), Lowest{}, Options[int]{})
	if err != nil {
		t.Fatal(err)
	}
	forEachTransport(t, nil, func(t *testing.T, row transportRow) {
		for i := 0; i < 20; i++ {
			got, errs := runOn(t, row, pingPong(500), Options[int]{}, nil)
			if err := errors.Join(errs...); err != nil {
				t.Fatalf("run %d: %v", i, err)
			}
			if got[0] != want[0] || got[1] != want[1] {
				t.Fatalf("run %d: %v, controlled %v", i, got, want)
			}
		}
	})
}

// TestConcurrentDeadlockDiagnostic: two ranks that both receive first
// deadlock the moment the second one blocks.  No watchdog is armed: the
// report must come from the exact detector, within 2 s, naming both
// waiters and their empty channels.
func TestConcurrentDeadlockDiagnostic(t *testing.T) {
	forEachTransport(t, noDetector, func(t *testing.T, row transportRow) {
		procs := []Proc[int, int]{
			func(ctx *Ctx[int]) int { v := ctx.Recv(1); ctx.Send(1, v); return v },
			func(ctx *Ctx[int]) int { v := ctx.Recv(0); ctx.Send(0, v); return v },
		}
		start := time.Now()
		_, errs := runOn(t, row, procs, Options[int]{}, nil)
		err := errs[0]
		var de *DeadlockError
		if !errors.As(err, &de) || !errors.Is(err, ErrDeadlock) || de.Stalled || woken(err) {
			t.Fatalf("want an exact DeadlockError, got %v", err)
		}
		if took := time.Since(start); took > 2*time.Second {
			t.Fatalf("exact detection took %v", took)
		}
		if de.Unfinished != 2 || len(de.Blocked) != 2 || de.Blocked[0] != (BlockedProc{Rank: 0, From: 1}) || de.Blocked[1] != (BlockedProc{Rank: 1, From: 0}) {
			t.Fatalf("diagnostic does not name both waiters: %+v", de)
		}
		if msg := err.Error(); !strings.Contains(msg, "P0 waits on empty channel P1->P0") ||
			!strings.Contains(msg, "P1 waits on empty channel P0->P1") {
			t.Fatalf("diagnostic does not name the blocked ranks: %q", msg)
		}
	})
}

// TestDeadlockDespiteStrayMessage: a message parked on a channel nobody
// waits on — in a queue, or in a kernel socket buffer that nothing but
// its receiver will ever read — must not hide the deadlock of the ranks
// that wait elsewhere, and the diagnostic counts it.
func TestDeadlockDespiteStrayMessage(t *testing.T) {
	forEachTransport(t, noDetector, func(t *testing.T, row transportRow) {
		procs := []Proc[int, int]{
			func(ctx *Ctx[int]) int { ctx.Send(1, 7); return ctx.Recv(2) }, // 7 is never received
			func(ctx *Ctx[int]) int { return ctx.Recv(2) },
			func(ctx *Ctx[int]) int { return ctx.Recv(0) },
		}
		_, errs := runOn(t, row, procs, Options[int]{}, nil)
		err := errs[0]
		var de *DeadlockError
		if !errors.As(err, &de) || !errors.Is(err, ErrDeadlock) || de.Stalled {
			t.Fatalf("want an exact DeadlockError, got %v", err)
		}
		if de.Unfinished != 3 || len(de.Blocked) != 3 || de.Pending != 1 {
			t.Fatalf("want 3 waiters and the stray message counted, got %+v", de)
		}
		for _, w := range []string{"P0 waits on empty channel P2->P0", "P1 waits on empty channel P2->P1", "P2 waits on empty channel P0->P2"} {
			if !strings.Contains(err.Error(), w) {
				t.Fatalf("diagnostic %q does not say %q", err, w)
			}
		}
	})
}

// TestStallWatchdog: a hang the exact detector cannot see — a sender
// parked outside any communication action — is diagnosed by the
// watchdog as ErrStall, and its abort reaches the receiver parked inside
// the transport.
func TestStallWatchdog(t *testing.T) {
	forEachTransport(t, nil, func(t *testing.T, row transportRow) {
		release := make(chan struct{})
		procs := []Proc[int, int]{
			func(ctx *Ctx[int]) int { <-release; return 0 }, // invisible to the runtime
			func(ctx *Ctx[int]) int { return ctx.Recv(0) },
		}
		go func() {
			// Free the sleeper once the watchdog has had ample time to
			// fire, so the run can terminate.
			time.Sleep(400 * time.Millisecond)
			close(release)
		}()
		_, errs := runOn(t, row, procs, Options[int]{StallTimeout: 50 * time.Millisecond}, nil)
		err := errs[1]
		var de *DeadlockError
		if !errors.Is(err, ErrStall) || !errors.As(err, &de) || !de.Stalled || woken(err) {
			t.Fatalf("want a stall diagnostic, got %v", err)
		}
		if len(de.Blocked) != 1 || de.Blocked[0] != (BlockedProc{Rank: 1, From: 0}) {
			t.Fatalf("stall diagnostic missing the parked receiver: %+v", de)
		}
	})
}

// TestConcurrentPanicRecovered: a rank that panics strands the peer
// parked waiting for its send; the run must end with the panic as the
// error, not hang and report neither the deadlock nor the teardown's
// transport failure.  On a worker row the peer is another process, so
// its own error is the transport failure of the dead rank's link.
func TestConcurrentPanicRecovered(t *testing.T) {
	forEachTransport(t, nil, func(t *testing.T, row transportRow) {
		procs := []Proc[int, int]{
			func(ctx *Ctx[int]) int { time.Sleep(20 * time.Millisecond); panic("boom at rank 0") },
			func(ctx *Ctx[int]) int { return ctx.Recv(0) },
		}
		_, errs := runOn(t, row, procs, Options[int]{}, nil)
		if err := errs[0]; err == nil || !strings.Contains(err.Error(), "process 0 panicked: boom at rank 0") ||
			errors.Is(err, ErrDeadlock) || woken(err) {
			t.Fatalf("want process 0's panic, got %v", err)
		}
		if row.worker {
			if err := errs[1]; !woken(err) || !strings.Contains(err.Error(), "peer closed") {
				t.Fatalf("rank 1 of a worker mesh: want the closed link, got %v", err)
			}
		}
	})
}

// TestAbortWakesParkedReceiver: an Abort from outside the run — a job
// timeout — wakes a receiver parked inside the transport within a
// second, and the run fails with the abort's reason.  The woken
// receiver stops counting as parked before it unwinds, so its peer,
// which finishes while rank 1 is still unwinding, does not turn the
// abort into a deadlock report; rank 1's deferred sleep holds it in
// that window on purpose.
func TestAbortWakesParkedReceiver(t *testing.T) {
	forEachTransport(t, nil, func(t *testing.T, row transportRow) {
		reason := errors.New("job deadline")
		release, woke := make(chan struct{}), make(chan struct{})
		procs := []Proc[int, int]{
			func(ctx *Ctx[int]) int { <-release; return 0 },
			func(ctx *Ctx[int]) int {
				defer func() {
					close(woke)
					time.Sleep(100 * time.Millisecond) // widens the unwinding window
				}()
				return ctx.Recv(0)
			},
		}
		started := make(chan func(error), 1)
		go func() {
			abort := <-started
			time.Sleep(50 * time.Millisecond) // poll budget spent: parked
			abort(reason)
			select {
			case <-woke:
			case <-time.After(time.Second):
				t.Error("parked receiver not woken within 1s of Abort")
			}
			close(release)
		}()
		_, errs := runOn(t, row, procs, Options[int]{}, started)
		if err := errs[1]; !woken(err) || !errors.Is(err, reason) {
			t.Fatalf("want a transport error carrying the abort, got %v", err)
		}
	})
}

// TestBlockCountsSaneUnderConcurrency: blocks are counted per logical
// wait, so they can never exceed the number of receives.
func TestBlockCountsSaneUnderConcurrency(t *testing.T) {
	forEachTransport(t, nil, func(t *testing.T, row transportRow) {
		col := obs.New(2)
		if _, errs := runOn(t, row, pingPong(200), Options[int]{Collector: col}, nil); errors.Join(errs...) != nil {
			t.Fatal(errors.Join(errs...))
		}
		col.Finish()
		snap := col.Snapshot()
		for rank := 0; rank < 2; rank++ {
			if r := snap.Ranks[rank]; r.Recvs != 200 || r.Blocks > r.Recvs {
				t.Errorf("rank %d: %d blocks, %d receives (want 200, blocks no more)", rank, r.Blocks, r.Recvs)
			}
		}
	})
}
