package sched

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/channel"
)

// The supervisor over an external transport: receivers park inside the
// transport, on their own sockets, and the exact deadlock detector and
// the abort must still reach them.

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

func socketMesh(t *testing.T, p int) *channel.SocketTransport[int] {
	t.Helper()
	tr, err := channel.NewLoopbackMesh(p, "unix", intWire(), channel.SocketOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

// TestSocketMatchesInProcess: the same network gives the same results
// over sockets, many times over — the ping-pong is exactly the pattern
// in which a receiver is served while its peer runs the deadlock check.
func TestSocketMatchesInProcess(t *testing.T) {
	want, err := RunConcurrent(pingPong(500), Options[int]{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		got, err := runBounded(t, 30*time.Second, pingPong(500), Options[int]{Transport: socketMesh(t, 2)})
		if err != nil {
			t.Fatalf("run %d over sockets: %v", i, err)
		}
		if got[0] != want[0] || got[1] != want[1] {
			t.Fatalf("run %d over sockets: %v, in process %v", i, got, want)
		}
	}
}

// TestSocketDeadlockExact: two ranks that both receive first deadlock
// the moment the second one blocks.  No watchdog is armed: the report
// must come from the exact detector, at once, naming both waiters.
func TestSocketDeadlockExact(t *testing.T) {
	procs := []Proc[int, int]{
		func(ctx *Ctx[int]) int { v := ctx.Recv(1); ctx.Send(1, v); return v },
		func(ctx *Ctx[int]) int { v := ctx.Recv(0); ctx.Send(0, v); return v },
	}
	start := time.Now()
	_, err := runBounded(t, 10*time.Second, procs, Options[int]{Transport: socketMesh(t, 2)})
	var de *DeadlockError
	if !errors.As(err, &de) || !errors.Is(err, ErrDeadlock) || de.Stalled {
		t.Fatalf("want an exact DeadlockError, got %v", err)
	}
	if len(de.Blocked) != 2 || de.Blocked[0] != (BlockedProc{Rank: 0, From: 1}) || de.Blocked[1] != (BlockedProc{Rank: 1, From: 0}) {
		t.Fatalf("diagnostic does not name both waiters: %+v", de)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("exact detection took %v", took)
	}
}

// TestSocketDeadlockDespiteStrayMessage: a message parked on a channel
// nobody waits on — here in a kernel socket buffer, which nothing but
// its receiver will ever read — must not hide the deadlock of the ranks
// that wait elsewhere.
func TestSocketDeadlockDespiteStrayMessage(t *testing.T) {
	procs := []Proc[int, int]{
		func(ctx *Ctx[int]) int { ctx.Send(1, 7); return ctx.Recv(2) }, // 7 is never received
		func(ctx *Ctx[int]) int { return ctx.Recv(2) },
		func(ctx *Ctx[int]) int { return ctx.Recv(0) },
	}
	_, err := runBounded(t, 10*time.Second, procs, Options[int]{Transport: socketMesh(t, 3)})
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
}

// TestSocketStallWatchdogWakesParkedReader: the watchdog's abort has no
// lock to broadcast on — the blocked rank is in the netpoller — so it
// must go through the transport.
func TestSocketStallWatchdogWakesParkedReader(t *testing.T) {
	release := make(chan struct{})
	procs := []Proc[int, int]{
		func(ctx *Ctx[int]) int { <-release; return 0 },
		func(ctx *Ctx[int]) int { return ctx.Recv(0) },
	}
	go func() {
		time.Sleep(400 * time.Millisecond)
		close(release)
	}()
	_, err := runBounded(t, 10*time.Second, procs, Options[int]{Transport: socketMesh(t, 2), StallTimeout: 50 * time.Millisecond})
	var de *DeadlockError
	if !errors.As(err, &de) || !de.Stalled {
		t.Fatalf("want a stall diagnostic, got %v", err)
	}
	if len(de.Blocked) != 1 || de.Blocked[0] != (BlockedProc{Rank: 1, From: 0}) {
		t.Fatalf("stall diagnostic missing the parked receiver: %+v", de)
	}
}

// TestSocketPanicLeavesNoReaderBehind: a rank that panics strands the
// peer parked on its socket; the run must end with the panic as its
// error, not hang and not report the teardown's transport failure.
func TestSocketPanicLeavesNoReaderBehind(t *testing.T) {
	procs := []Proc[int, int]{
		func(ctx *Ctx[int]) int { time.Sleep(20 * time.Millisecond); panic("boom") },
		func(ctx *Ctx[int]) int { return ctx.Recv(0) },
	}
	_, err := runBounded(t, 10*time.Second, procs, Options[int]{Transport: socketMesh(t, 2)})
	if err == nil || !strings.Contains(err.Error(), "process 0 panicked: boom") {
		t.Fatalf("want process 0's panic, got %v", err)
	}
}
