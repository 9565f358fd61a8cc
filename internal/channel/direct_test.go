package channel

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// Tests of the direct-read socket path: the receiving rank reads its
// own socket, nothing pumps in the background, and the slack the model
// promises lives on the sender's side.

// blobCodec carries byte slices verbatim.
func blobCodec() Codec[[]byte] {
	return Codec[[]byte]{
		Append: func(dst []byte, v []byte) []byte { return append(dst, v...) },
		Decode: func(src []byte) ([]byte, error) { return append([]byte(nil), src...), nil },
	}
}

// drainers counts the links of tr whose drain goroutine exists.
func drainers[T any](tr *SocketTransport[T]) int {
	n := 0
	for _, l := range tr.links {
		if l == nil {
			continue
		}
		l.mu.Lock()
		if l.draining {
			n++
		}
		l.mu.Unlock()
	}
	return n
}

// TestSocketSlackBeforeReceive: both ranks send and flush 8 MiB to each
// other — far more than a unix socket buffer holds — before either
// receives a byte.  Sends-before-receives is the exchange order of the
// whole mesh layer, so this must finish, not deadlock on full buffers.
func TestSocketSlackBeforeReceive(t *testing.T) {
	const (
		msgs = 8
		size = 1 << 20
	)
	tr, err := NewLoopbackMesh(2, "unix", blobCodec(), SocketOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	blob := func(from, k int) []byte {
		return bytes.Repeat([]byte{byte(16*from + k)}, size)
	}
	var sent, done sync.WaitGroup
	sent.Add(2)
	errs := make(chan error, 2)
	for r := 0; r < 2; r++ {
		r, peer := r, 1-r
		done.Add(1)
		go func() {
			defer done.Done()
			for k := 0; k < msgs; k++ {
				tr.Chan(r, peer).Send(blob(r, k))
				tr.Flush(r)
			}
			sent.Done()
			sent.Wait() // nobody receives until everybody has sent everything
			for k := 0; k < msgs; k++ {
				if got := tr.Chan(peer, r).Recv(); !bytes.Equal(got, blob(peer, k)) {
					errs <- fmt.Errorf("rank %d: message %d from %d is not what was sent", r, k, peer)
					return
				}
			}
		}()
	}
	finished := make(chan struct{})
	go func() { done.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatal("sends-before-receives of 8 MiB per direction deadlocked")
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := tr.Pending(); n != 0 {
		t.Errorf("Pending = %d after everything was received", n)
	}
	if n := drainers(tr); n != 2 {
		t.Errorf("%d links have a drain goroutine, want the 2 that overflowed", n)
	}
}

// TestSocketNoPump: an idle mesh owns no goroutines, traffic that fits
// the kernel buffers starts none, and an overflow starts exactly one,
// on the link that overflowed.
func TestSocketNoPump(t *testing.T) {
	goroutines := func() int {
		// Let goroutines that are on their way out finish.
		n := runtime.NumGoroutine()
		for i := 0; i < 50; i++ {
			time.Sleep(2 * time.Millisecond)
			if m := runtime.NumGoroutine(); m == n {
				break
			} else {
				n = m
			}
		}
		return n
	}
	before := goroutines()
	tr, err := NewLoopbackMesh(4, "unix", blobCodec(), SocketOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if after := goroutines(); after != before {
		t.Fatalf("an idle 4-rank mesh added %d goroutines", after-before)
	}
	for from := 0; from < 4; from++ {
		for to := 0; to < 4; to++ {
			tr.Chan(from, to).Send([]byte{byte(from), byte(to)})
		}
		tr.Flush(from)
	}
	for from := 0; from < 4; from++ {
		for to := 0; to < 4; to++ {
			if got := tr.Chan(from, to).Recv(); len(got) != 2 || got[0] != byte(from) || got[1] != byte(to) {
				t.Fatalf("channel %d->%d delivered %v", from, to, got)
			}
		}
	}
	if after := goroutines(); after != before || drainers(tr) != 0 {
		t.Fatalf("small traffic started %d goroutines (%d drainers)", after-before, drainers(tr))
	}
	tr.Chan(2, 3).Send(make([]byte, 4<<20))
	tr.Flush(2)
	if n := drainers(tr); n != 1 {
		t.Fatalf("%d drain goroutines after one link overflowed, want 1", n)
	}
	if after := goroutines(); after != before+1 {
		t.Fatalf("overflow of one link added %d goroutines, want 1", after-before)
	}
	if got := tr.Chan(2, 3).Recv(); len(got) != 4<<20 {
		t.Fatalf("overflowed message arrived with %d bytes", len(got))
	}
}

// parked starts a Recv on e and gives it time to run out of poll budget
// and park — a state nothing outside the runtime can observe, hence the
// sleep.
func parked[T any](e Endpoint[T]) <-chan any {
	ended := recvAsync(e)
	time.Sleep(50 * time.Millisecond)
	return ended
}

// wantWoken requires a parked receive to fail within a second with a
// *TransportError saying text.
func wantWoken(t *testing.T, ended <-chan any, text string) {
	t.Helper()
	if te := wantTransportError(t, ended, time.Second); !strings.Contains(te.Error(), text) {
		t.Fatalf("error %q does not say %q", te.Error(), text)
	}
}

// TestAbortWakesParkedReader: a rank parked inside a transport — on its
// channel's condition variable in process, in the netpoller on its own
// socket — is woken by Abort, the same way on both.
func TestAbortWakesParkedReader(t *testing.T) {
	for _, row := range []struct {
		name string
		net  func() (Transport[int64], error)
	}{
		{"NewChanNet", func() (Transport[int64], error) { return NewChanNet[int64](2), nil }},
		{"NewLoopbackMesh", func() (Transport[int64], error) {
			return NewLoopbackMesh(2, "unix", intCodec(), SocketOptions{})
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			tr, err := row.net()
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			woke := parked(tr.Chan(0, 1))
			self := parked(tr.Chan(1, 1)) // a rank waiting on itself waits for the abort too
			tr.Abort(fmt.Errorf("deadline"))
			wantWoken(t, woke, "aborted: deadline")
			wantWoken(t, self, "aborted: deadline")
			if err := tr.Err(); err == nil || !strings.Contains(err.Error(), "aborted: deadline") {
				t.Fatalf("Err after Abort = %v", err)
			}
		})
	}
}

// TestPeerCloseWakesParkedReader: so is a rank whose peer goes away.
func TestPeerCloseWakesParkedReader(t *testing.T) {
	dir := t.TempDir()
	addrs := []string{filepath.Join(dir, "r0.sock"), filepath.Join(dir, "r1.sock")}
	trs := make([]*SocketTransport[int64], 2)
	var wg sync.WaitGroup
	for r := range trs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, err := DialMesh("unix", addrs, r, intCodec(), SocketOptions{})
			if err != nil {
				t.Errorf("rank %d: %v", r, err)
			}
			trs[r] = tr
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	defer trs[0].Close()
	woke := parked(trs[0].Chan(1, 0))
	trs[1].Close()
	wantWoken(t, woke, "channel 1->0: peer closed")
	if err := trs[0].Err(); err != nil {
		t.Fatalf("a peer closing at a frame boundary failed the whole transport: %v", err)
	}
}

// TestSocketPendingCountsTheWire: Pending is sent − received, wherever
// the frames are — coalescer, kernel buffer or read buffer.
func TestSocketPendingCountsTheWire(t *testing.T) {
	tr, err := NewLoopbackMesh(2, "unix", intCodec(), SocketOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for k := 0; k < 3; k++ {
		tr.Chan(0, 1).Send(int64(k))
	}
	if got := tr.Pending(); got != 3 {
		t.Fatalf("Pending = %d with 3 frames in the coalescer", got)
	}
	tr.Flush(0)
	if got, l := tr.Pending(), tr.Chan(0, 1).Len(); got != 3 || l != 3 {
		t.Fatalf("Pending = %d, Len = %d with 3 frames in the kernel buffer", got, l)
	}
	tr.Chan(0, 1).Recv() // reads all three off the wire, hands out one
	if got := tr.Pending(); got != 2 {
		t.Fatalf("Pending = %d with 2 frames in the read buffer", got)
	}
	tr.Chan(0, 1).Recv()
	tr.Chan(0, 1).Recv()
	if got := tr.Pending(); got != 0 {
		t.Fatalf("Pending = %d after everything was received", got)
	}
}

// TestSocketExchangeSteadyStateAllocs: once warm, an exchange round —
// send, flush, direct read, decode — allocates nothing.
func TestSocketExchangeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	tr, err := NewLoopbackMesh(2, "unix", intCodec(), SocketOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	round := func() {
		tr.Chan(0, 1).Send(1)
		tr.Flush(0)
		tr.Chan(0, 1).Recv()
		tr.Chan(1, 0).Send(2)
		tr.Flush(1)
		tr.Chan(1, 0).Recv()
	}
	for i := 0; i < 4; i++ {
		round()
	}
	if n := testing.AllocsPerRun(200, round); n != 0 {
		t.Fatalf("a steady-state exchange round allocates %v objects, want 0", n)
	}
}
