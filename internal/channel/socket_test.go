package channel

import (
	"encoding/binary"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// intCodec carries int64 values as 8-byte little-endian payloads.
func intCodec() Codec[int64] {
	return Codec[int64]{
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

func recvDeadline(t *testing.T, e Endpoint[int64]) int64 {
	t.Helper()
	type res struct {
		v  int64
		ok bool
	}
	ch := make(chan res, 1)
	go func() {
		defer func() {
			if recover() != nil {
				ch <- res{ok: false}
			}
		}()
		ch <- res{v: e.Recv(), ok: true}
	}()
	select {
	case r := <-ch:
		if !r.ok {
			t.Fatalf("Recv panicked")
		}
		return r.v
	case <-time.After(10 * time.Second):
		t.Fatalf("Recv timed out")
		return 0
	}
}

func TestSocketRoundTrip(t *testing.T) {
	for _, network := range []string{"tcp", "unix"} {
		t.Run(network, func(t *testing.T) {
			const p = 3
			tr, err := NewLoopbackMesh(p, network, intCodec(), SocketOptions{})
			if err != nil {
				t.Fatalf("NewLoopbackMesh: %v", err)
			}
			defer tr.Close()
			// FIFO order per channel, all ordered pairs including self.
			for from := 0; from < p; from++ {
				for to := 0; to < p; to++ {
					for k := 0; k < 5; k++ {
						tr.Chan(from, to).Send(int64(100*from + 10*to + k))
					}
				}
				tr.Flush(from)
			}
			for from := 0; from < p; from++ {
				for to := 0; to < p; to++ {
					for k := 0; k < 5; k++ {
						got := recvDeadline(t, tr.Chan(from, to))
						want := int64(100*from + 10*to + k)
						if got != want {
							t.Fatalf("channel %d->%d message %d: got %d, want %d", from, to, k, got, want)
						}
					}
				}
			}
			if err := tr.Err(); err != nil {
				t.Fatalf("transport error: %v", err)
			}
		})
	}
}

// TestSocketRecvFlushesOwnLinks checks the anti-starvation rule: a bare
// Recv on an empty channel must first push the receiver's own coalesced
// frames to the wire, or two ranks could each hold the bytes the other
// is waiting for.
func TestSocketRecvFlushesOwnLinks(t *testing.T) {
	tr, err := NewLoopbackMesh(2, "tcp", intCodec(), SocketOptions{})
	if err != nil {
		t.Fatalf("NewLoopbackMesh: %v", err)
	}
	defer tr.Close()
	done := make(chan int64, 1)
	go func() {
		// Rank 1 echoes: its reply is only sent after rank 0's frame
		// arrives, which requires rank 0's implicit flush inside Recv.
		v := tr.Chan(0, 1).Recv()
		tr.Chan(1, 0).Send(v + 1)
		tr.Flush(1)
	}()
	tr.Chan(0, 1).Send(41) // buffered, never explicitly flushed
	go func() { done <- tr.Chan(1, 0).Recv() }()
	select {
	case got := <-done:
		if got != 42 {
			t.Fatalf("echo: got %d, want 42", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("echo deadlocked: Recv did not flush the receiver's own links")
	}
}

// TestSocketMultiplexRace hammers every channel of a loopback mesh from
// concurrent senders and receivers; run under -race it vets the
// coalescer, the direct reads and the drain goroutines for data races.
func TestSocketMultiplexRace(t *testing.T) {
	const (
		p    = 4
		msgs = 200
	)
	stats := NewNetStats(p)
	tr, err := NewLoopbackMesh(p, "tcp", intCodec(), SocketOptions{Stats: stats})
	if err != nil {
		t.Fatalf("NewLoopbackMesh: %v", err)
	}
	defer tr.Close()
	var wg sync.WaitGroup
	errs := make(chan error, p)
	for r := 0; r < p; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Interleave sends to all peers with periodic flushes, then
			// drain every inbound channel and check FIFO order.
			for k := 0; k < msgs; k++ {
				for to := 0; to < p; to++ {
					if to != r {
						tr.Chan(r, to).Send(int64(1000*r + k))
					}
				}
				if k%17 == 0 {
					tr.Flush(r)
				}
			}
			tr.Flush(r)
			for from := 0; from < p; from++ {
				if from == r {
					continue
				}
				for k := 0; k < msgs; k++ {
					got := tr.Chan(from, r).Recv()
					if want := int64(1000*from + k); got != want {
						errs <- fmt.Errorf("rank %d: channel %d->%d message %d: got %d, want %d", r, from, r, k, got, want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := stats.TotalWireFrames(); got != int64(p*(p-1)*msgs) {
		t.Fatalf("wire frames: got %d, want %d", got, p*(p-1)*msgs)
	}
	if stats.TotalFlushes() == 0 || stats.TotalSyscalls() == 0 {
		t.Fatalf("expected non-zero flush/syscall counters, got flushes=%d syscalls=%d",
			stats.TotalFlushes(), stats.TotalSyscalls())
	}
}

// TestSocketCoalescing asserts the headline batching property: many
// sends to one neighbour followed by one flush reach the wire as a
// single counted flush and a single write syscall.
func TestSocketCoalescing(t *testing.T) {
	const p = 2
	stats := NewNetStats(p)
	tr, err := NewLoopbackMesh(p, "tcp", intCodec(), SocketOptions{Stats: stats})
	if err != nil {
		t.Fatalf("NewLoopbackMesh: %v", err)
	}
	defer tr.Close()
	const frames = 500
	for k := 0; k < frames; k++ {
		tr.Chan(0, 1).Send(int64(k))
	}
	tr.Flush(0)
	tr.Flush(0) // empty: must not count
	if got := stats.Flushes(0, 1); got != 1 {
		t.Fatalf("flushes on 0->1: got %d, want 1", got)
	}
	if got := stats.Syscalls(0, 1); got != 1 {
		t.Fatalf("syscalls on 0->1: got %d, want 1", got)
	}
	if got := stats.WireFrames(0, 1); got != frames {
		t.Fatalf("wire frames on 0->1: got %d, want %d", got, frames)
	}
	if got, want := stats.WireBytes(0, 1), int64(frames*(frameHeaderLen+8)); got != want {
		t.Fatalf("wire bytes on 0->1: got %d, want %d", got, want)
	}
	for k := 0; k < frames; k++ {
		if got := recvDeadline(t, tr.Chan(0, 1)); got != int64(k) {
			t.Fatalf("message %d: got %d", k, got)
		}
	}
}

func TestSocketDialMesh(t *testing.T) {
	const p = 3
	dir := t.TempDir()
	addrs := make([]string, p)
	for i := range addrs {
		addrs[i] = filepath.Join(dir, fmt.Sprintf("rank-%d.sock", i))
	}
	trs := make([]*SocketTransport[int64], p)
	var wg sync.WaitGroup
	errs := make([]error, p)
	for r := 0; r < p; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, err := DialMesh("unix", addrs, r, intCodec(), SocketOptions{DialTimeout: 10 * time.Second})
			trs[r], errs[r] = tr, err
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d DialMesh: %v", r, err)
		}
	}
	defer func() {
		for _, tr := range trs {
			tr.Close()
		}
	}()
	// Ring exchange: rank r sends r*10 to (r+1)%p and receives from
	// (r-1+p)%p, through each rank's own per-rank transport.
	var ring sync.WaitGroup
	got := make([]int64, p)
	for r := 0; r < p; r++ {
		r := r
		ring.Add(1)
		go func() {
			defer ring.Done()
			next, prev := (r+1)%p, (r-1+p)%p
			trs[r].Chan(r, next).Send(int64(r * 10))
			trs[r].Flush(r)
			got[r] = trs[r].Chan(prev, r).Recv()
		}()
	}
	ring.Wait()
	for r := 0; r < p; r++ {
		prev := (r - 1 + p) % p
		if got[r] != int64(prev*10) {
			t.Fatalf("rank %d received %d, want %d", r, got[r], prev*10)
		}
	}
	// A rank's transport must reject channels that do not touch it.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Chan(1,2) on rank 0's transport should panic")
			}
		}()
		trs[0].Chan(1, 2)
	}()
}

// fakePeer accepts one DialMesh connection as rank 0 of a P=2 mesh and
// hands the raw conn to the test, which can then write arbitrary bytes
// at the wire level.
func fakePeer(t *testing.T, network, addr string) (net.Conn, func()) {
	t.Helper()
	ln, err := net.Listen(network, addr)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	conn, err := ln.Accept()
	if err != nil {
		ln.Close()
		t.Fatalf("accept: %v", err)
	}
	if _, err := readHello(conn, 2); err != nil {
		t.Fatalf("hello from rank 1: %v", err)
	}
	if err := writeHello(conn, 2, 0); err != nil {
		t.Fatalf("hello to rank 1: %v", err)
	}
	return conn, func() { conn.Close(); ln.Close() }
}

func dialRank1(t *testing.T, addrs []string, trCh chan<- *SocketTransport[int64]) {
	t.Helper()
	go func() {
		tr, err := DialMesh("unix", addrs, 1, intCodec(), SocketOptions{DialTimeout: 10 * time.Second})
		if err != nil {
			t.Errorf("DialMesh rank 1: %v", err)
			trCh <- nil
			return
		}
		trCh <- tr
	}()
}

// recvAsync starts a Recv on e and returns the channel on which what it
// panicked with (nil if it returned normally) arrives.
func recvAsync[T any](e Endpoint[T]) <-chan any {
	ended := make(chan any, 1)
	go func() {
		defer func() { ended <- recover() }()
		e.Recv()
	}()
	return ended
}

// wantTransportError waits for a receive started by recvAsync to panic
// with a *TransportError, and returns it.
func wantTransportError(t *testing.T, ended <-chan any, within time.Duration) *TransportError {
	t.Helper()
	select {
	case r := <-ended:
		te, ok := r.(*TransportError)
		if !ok {
			t.Fatalf("Recv ended with %v (%T), want a *TransportError panic", r, r)
		}
		return te
	case <-time.After(within):
		t.Fatalf("Recv still waiting after %v", within)
		return nil
	}
}

// recvFailure receives on e, which must fail: nothing reads a socket
// until its rank does, so a bad frame is found by the receive that
// meets it.
func recvFailure(t *testing.T, e Endpoint[int64]) *TransportError {
	t.Helper()
	return wantTransportError(t, recvAsync(e), 10*time.Second)
}

func TestSocketCorruptFrame(t *testing.T) {
	dir := t.TempDir()
	addrs := []string{filepath.Join(dir, "r0.sock"), filepath.Join(dir, "r1.sock")}
	trCh := make(chan *SocketTransport[int64], 1)
	dialRank1(t, addrs, trCh)
	conn, closePeer := fakePeer(t, "unix", addrs[0])
	defer closePeer()
	tr := <-trCh
	if tr == nil {
		t.FailNow()
	}
	defer tr.Close()

	// A valid frame on channel 0->1 (id 0*2+1 = 1) ... with the channel
	// id corrupted by a single flipped byte.
	frame := make([]byte, frameHeaderLen+8)
	binary.LittleEndian.PutUint32(frame[0:], 1)
	binary.LittleEndian.PutUint32(frame[4:], 8)
	binary.LittleEndian.PutUint64(frame[8:], 7)
	frame[0] ^= 0x40 // channel id 1 -> 65
	if _, err := conn.Write(frame); err != nil {
		t.Fatalf("write corrupt frame: %v", err)
	}
	// The receive that meets the frame must surface the failure as a
	// TransportError panic, not hang, and fail the whole transport.
	if te := recvFailure(t, tr.Chan(0, 1)); !strings.Contains(te.Error(), "corrupt frame") {
		t.Fatalf("TransportError %q does not identify the corrupt frame", te.Error())
	}
	if err := tr.Err(); err == nil || !strings.Contains(err.Error(), "corrupt frame") {
		t.Fatalf("transport error %v does not identify a corrupt frame", err)
	}
	// The failure is sticky: a later receive reports it again.
	if te := recvFailure(t, tr.Chan(0, 1)); !strings.Contains(te.Error(), "corrupt frame") {
		t.Fatalf("second receive: %q", te.Error())
	}
}

func TestSocketTruncatedFrame(t *testing.T) {
	dir := t.TempDir()
	addrs := []string{filepath.Join(dir, "r0.sock"), filepath.Join(dir, "r1.sock")}
	trCh := make(chan *SocketTransport[int64], 1)
	dialRank1(t, addrs, trCh)
	conn, closePeer := fakePeer(t, "unix", addrs[0])
	tr := <-trCh
	if tr == nil {
		t.FailNow()
	}
	defer tr.Close()

	// Header promises 64 payload bytes; only 10 arrive before the peer
	// dies mid-frame.
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], 1)
	binary.LittleEndian.PutUint32(hdr[4:], 64)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatalf("write header: %v", err)
	}
	if _, err := conn.Write(make([]byte, 10)); err != nil {
		t.Fatalf("write partial payload: %v", err)
	}
	closePeer()
	if te := recvFailure(t, tr.Chan(0, 1)); !strings.Contains(te.Error(), "truncated frame") {
		t.Fatalf("error %q does not identify a truncated frame", te)
	}
	if tr.Err() == nil {
		t.Fatal("a truncated frame did not fail the transport")
	}
}

// TestSocketOversizedFrame: a corrupt length field must fail cleanly,
// not attempt a giant allocation.
func TestSocketOversizedFrame(t *testing.T) {
	dir := t.TempDir()
	addrs := []string{filepath.Join(dir, "r0.sock"), filepath.Join(dir, "r1.sock")}
	trCh := make(chan *SocketTransport[int64], 1)
	go func() {
		tr, err := DialMesh("unix", addrs, 1, intCodec(), SocketOptions{DialTimeout: 10 * time.Second})
		if err != nil {
			t.Errorf("DialMesh rank 1: %v", err)
			trCh <- nil
			return
		}
		trCh <- tr
	}()
	conn, closePeer := fakePeer(t, "unix", addrs[0])
	defer closePeer()
	tr := <-trCh
	if tr == nil {
		t.FailNow()
	}
	defer tr.Close()
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], 1)
	binary.LittleEndian.PutUint32(hdr[4:], 1<<30)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatalf("write header: %v", err)
	}
	if te := recvFailure(t, tr.Chan(0, 1)); !strings.Contains(te.Error(), "exceeds MaxFrame") {
		t.Fatalf("error %q does not identify the oversized frame", te)
	}
}
