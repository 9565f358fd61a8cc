// DialMesh rendezvous robustness: slow-to-listen peers must be
// absorbed by the dial retry loop, a peer that never shows up must
// surface as a bounded typed error (not a hang), and an aborted
// transport must refuse cleanly rather than wedging reconnects.
//
// This file lives in package channel_test (not channel) because it
// decorates the mesh with fault.DelaySends, and fault imports channel —
// an internal test would be an import cycle.
package channel_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/fault"
)

// wireCodec carries int64 values as 8-byte little-endian payloads.
// socket_test.go has an identical helper, but that one is internal to
// package channel and invisible here.
func wireCodec() channel.Codec[int64] {
	return channel.Codec[int64]{
		Append: func(dst []byte, v int64) []byte {
			return binary.LittleEndian.AppendUint64(dst, uint64(v))
		},
		Decode: func(src []byte) (int64, error) {
			if len(src) != 8 {
				return 0, fmt.Errorf("payload %d bytes, want 8", len(src))
			}
			return int64(binary.LittleEndian.Uint64(src)), nil
		},
	}
}

// unixAddrs returns per-rank rendezvous socket paths in a fresh dir.
func unixAddrs(t *testing.T, p int) []string {
	t.Helper()
	dir := t.TempDir()
	addrs := make([]string, p)
	for i := range addrs {
		addrs[i] = filepath.Join(dir, fmt.Sprintf("rank-%d.sock", i))
	}
	return addrs
}

// tcpAddrs reserves p distinct loopback ports (bind-then-release).
func tcpAddrs(t *testing.T, p int) []string {
	t.Helper()
	addrs := make([]string, p)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}

// recvWithin bounds a blocking Recv so a broken rendezvous fails the
// test instead of hanging it.
func recvWithin(t *testing.T, ep channel.Endpoint[int64], within time.Duration) int64 {
	t.Helper()
	got := make(chan int64, 1)
	go func() { got <- ep.Recv() }()
	select {
	case v := <-got:
		return v
	case <-time.After(within):
		t.Fatalf("Recv did not complete within %v", within)
		return 0
	}
}

// TestDialMeshSlowListener starts rank 1 (which dials rank 0) well
// before rank 0's listener exists, proving the rendezvous retry loop
// rides out slow-starting peers within DialTimeout.  The sending
// endpoints come through fault.DelaySends so the post-rendezvous
// traffic crosses a deliberately laggy path and must still arrive
// intact — the same seeded injector the cluster chaos tests use.
func TestDialMeshSlowListener(t *testing.T) {
	addrs := unixAddrs(t, 2)
	codec := wireCodec()
	opt := channel.SocketOptions{DialTimeout: 10 * time.Second}

	var wg sync.WaitGroup
	var tr1 *channel.SocketTransport[int64]
	var err1 error
	started := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Rank 1 dials rank 0 first; addrs[0] has no listener yet, so
		// this spins in dialRetry until rank 0 appears below.
		tr1, err1 = channel.DialMesh("unix", addrs, 1, codec, opt)
	}()

	// Hold rank 0 back long enough that rank 1 provably retried.
	time.Sleep(250 * time.Millisecond)
	tr0, err := channel.DialMesh("unix", addrs, 0, codec, opt)
	if err != nil {
		t.Fatalf("rank 0 DialMesh: %v", err)
	}
	defer tr0.Close()
	wg.Wait()
	if err1 != nil {
		t.Fatalf("rank 1 DialMesh after slow listener: %v", err1)
	}
	defer tr1.Close()
	if took := time.Since(started); took < 250*time.Millisecond {
		t.Fatalf("rank 1 rendezvous finished in %v, before rank 0 even listened", took)
	}

	// Bidirectional exchange through delayed send paths.
	const rounds = 16
	wg.Add(1)
	go func() {
		defer wg.Done()
		send := fault.DelaySends[int64](tr1, 42, 2*time.Millisecond).Chan(1, 0)
		for i := int64(0); i < rounds; i++ {
			send.Send(1000 + i)
		}
		tr1.Flush(1)
		recv := tr1.Chan(0, 1)
		for i := int64(0); i < rounds; i++ {
			if v := recv.Recv(); v != 2000+i {
				panic(fmt.Sprintf("rank 1 got %d, want %d", v, 2000+i))
			}
		}
	}()
	send := fault.DelaySends[int64](tr0, 42, 2*time.Millisecond).Chan(0, 1)
	recv := tr0.Chan(1, 0)
	for i := int64(0); i < rounds; i++ {
		if v := recvWithin(t, recv, 20*time.Second); v != 1000+i {
			t.Fatalf("rank 0 got %d, want %d", v, 1000+i)
		}
	}
	for i := int64(0); i < rounds; i++ {
		send.Send(2000 + i)
	}
	tr0.Flush(0)
	wg.Wait()
}

// TestDialMeshRetryDeadline covers both halves of the rendezvous
// timing out: a dialer whose peer never listens, and a listener whose
// peer never dials.  Both must return a bounded, descriptive error.
func TestDialMeshRetryDeadline(t *testing.T) {
	codec := wireCodec()
	opt := channel.SocketOptions{DialTimeout: 200 * time.Millisecond}

	t.Run("dialer", func(t *testing.T) {
		addrs := unixAddrs(t, 2)
		start := time.Now()
		tr, err := channel.DialMesh("unix", addrs, 1, codec, opt)
		took := time.Since(start)
		if err == nil {
			tr.Close()
			t.Fatal("DialMesh succeeded with no rank 0 listening")
		}
		if !strings.Contains(err.Error(), "dial rank 0") {
			t.Fatalf("error does not name the missing peer: %v", err)
		}
		// It kept retrying until the deadline, then stopped promptly.
		if took < 150*time.Millisecond {
			t.Fatalf("gave up after %v, before the %v retry budget", took, opt.DialTimeout)
		}
		if took > 5*time.Second {
			t.Fatalf("took %v to report a dead rendezvous", took)
		}
	})

	t.Run("acceptor", func(t *testing.T) {
		addrs := unixAddrs(t, 2)
		start := time.Now()
		tr, err := channel.DialMesh("unix", addrs, 0, codec, opt)
		took := time.Since(start)
		if err == nil {
			tr.Close()
			t.Fatal("DialMesh succeeded with no rank 1 dialing in")
		}
		if !strings.Contains(err.Error(), "accept") {
			t.Fatalf("error does not name the accept phase: %v", err)
		}
		if took > 5*time.Second {
			t.Fatalf("took %v to report a dead rendezvous", took)
		}
	})
}

// TestDialMeshAbortThenReconnectRefused aborts one side of a live
// two-rank mesh and verifies the failure modes the cluster runtime
// depends on: the poisoned transport raises *TransportError from
// blocking receives, and a later reconnect against the torn-down
// rendezvous fails with a clean connection-refused-style error instead
// of hanging — DialMesh listeners close after rendezvous, so "rebuild
// the whole mesh" is the only recovery, exactly what procs relaunch
// does.
func TestDialMeshAbortThenReconnectRefused(t *testing.T) {
	addrs := tcpAddrs(t, 2)
	codec := wireCodec()
	opt := channel.SocketOptions{DialTimeout: 5 * time.Second}

	var wg sync.WaitGroup
	var tr1 *channel.SocketTransport[int64]
	var err1 error
	wg.Add(1)
	go func() {
		defer wg.Done()
		tr1, err1 = channel.DialMesh("tcp", addrs, 1, codec, opt)
	}()
	tr0, err := channel.DialMesh("tcp", addrs, 0, codec, opt)
	if err != nil {
		t.Fatalf("rank 0 DialMesh: %v", err)
	}
	defer tr0.Close()
	wg.Wait()
	if err1 != nil {
		t.Fatalf("rank 1 DialMesh: %v", err1)
	}
	defer tr1.Close()

	// Prove the mesh is live before breaking it.
	tr0.Chan(0, 1).Send(7)
	tr0.Flush(0)
	if v := recvWithin(t, tr1.Chan(0, 1), 10*time.Second); v != 7 {
		t.Fatalf("pre-abort exchange got %d, want 7", v)
	}

	cause := errors.New("injected chaos abort")
	tr1.Abort(cause)
	if got := tr1.Err(); got == nil || !errors.Is(got, cause) {
		t.Fatalf("Err() = %v, want wrap of %v", got, cause)
	}
	// A blocking receive on the poisoned transport must panic with the
	// typed transport failure, not hang.
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		tr1.Chan(0, 1).Recv()
	}()
	select {
	case p := <-panicked:
		var te *channel.TransportError
		err, ok := p.(error)
		if !ok || !errors.As(err, &te) || !errors.Is(te, cause) {
			t.Fatalf("post-abort Recv panicked with %v, want *TransportError wrapping the abort cause", p)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("post-abort Recv hung instead of failing")
	}
	tr1.Close()
	tr0.Close()

	// Reconnecting against the dead rendezvous: rank 0's listener
	// closed when its DialMesh returned, so a fresh rank 1 must get a
	// prompt refusal, bounded by its retry budget.
	start := time.Now()
	reopt := channel.SocketOptions{DialTimeout: 300 * time.Millisecond}
	tr, err := channel.DialMesh("tcp", addrs, 1, codec, reopt)
	took := time.Since(start)
	if err == nil {
		tr.Close()
		t.Fatal("reconnect succeeded against a torn-down mesh")
	}
	if !strings.Contains(err.Error(), "dial rank 0") {
		t.Fatalf("reconnect error does not name the dead peer: %v", err)
	}
	var opErr *net.OpError
	if !errors.As(err, &opErr) {
		t.Fatalf("reconnect error is not a typed net failure: %v", err)
	}
	if took > 5*time.Second {
		t.Fatalf("reconnect refusal took %v, want a prompt bounded failure", took)
	}
}
