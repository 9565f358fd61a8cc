package channel

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"
)

// fuzzFrame encodes one wire frame: header (channel id, payload
// length) followed by the payload bytes.
func fuzzFrame(id uint32, payload []byte) []byte {
	b := make([]byte, frameHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(b[0:], id)
	binary.LittleEndian.PutUint32(b[4:], uint32(len(payload)))
	copy(b[frameHeaderLen:], payload)
	return b
}

// FuzzFrameDecode drives the socket transport's frame parser with
// arbitrary byte streams.  The parser must never panic, never return a
// payload beyond MaxFrame or outside the frame, and must classify every
// malformed stream as corrupt or truncated rather than silently
// mis-framing — the properties the corrupt/truncated/oversized cases of
// socket_test.go pin down at the transport level.
func FuzzFrameDecode(f *testing.F) {
	const (
		want     = uint32(1) // channel 0->1 in a P=2 mesh
		maxFrame = 1024
	)
	valid := fuzzFrame(want, []byte("hello world"))

	// Seed corpus: the deterministic failure modes the socket tests
	// construct by hand.
	f.Add([]byte{})                                     // empty stream: clean EOF
	f.Add(valid)                                        // one well-formed frame
	f.Add(append(append([]byte{}, valid...), valid...)) // two frames back to back
	f.Add(valid[:3])                                    // short header
	f.Add(valid[:frameHeaderLen])                       // header only, truncated payload
	f.Add(valid[:len(valid)-4])                         // payload cut mid-frame
	corrupt := append([]byte{}, valid...)
	corrupt[0] ^= 0xFF // flipped channel-id byte
	f.Add(corrupt)
	oversized := fuzzFrame(want, []byte("x"))
	binary.LittleEndian.PutUint32(oversized[4:], 1<<30) // lying length field
	f.Add(oversized)
	f.Add(fuzzFrame(want, make([]byte, maxFrame))) // exactly at the bound
	f.Add(fuzzFrame(want+1, nil))                  // wrong channel id

	f.Fuzz(func(t *testing.T, data []byte) {
		rest, frames := data, 0
		for {
			payload, size, err := parseFrame(rest, want, maxFrame)
			if err != nil {
				if msg := err.Error(); !strings.Contains(msg, "corrupt frame") {
					t.Fatalf("malformed header error %q does not name the corrupt frame", msg)
				}
				return
			}
			if size == 0 {
				// The stream ends inside a frame, or exactly at a
				// boundary: only the boundary is a clean EOF.
				switch err := streamEnd(rest, io.EOF); {
				case (err == io.EOF) != (len(rest) == 0):
					t.Fatalf("stream end with %d bytes left reported %v", len(rest), err)
				case err != io.EOF && !strings.Contains(err.Error(), "truncated frame"):
					t.Fatalf("cut stream error %q does not name the truncated frame", err)
				}
				return
			}
			if len(payload) > maxFrame {
				t.Fatalf("accepted %d-byte payload past MaxFrame %d", len(payload), maxFrame)
			}
			if size != frameHeaderLen+len(payload) || size > len(rest) || !bytes.Equal(payload, rest[frameHeaderLen:size]) {
				t.Fatalf("frame of size %d returned a %d-byte payload that is not its body", size, len(payload))
			}
			frames++
			if frames > len(data) {
				t.Fatal("parsed more frames than input bytes")
			}
			rest = rest[size:]
		}
	})
}

// splitPeer is a receive half of channel 0->1 on rank 1 of a P=2 mesh,
// read through a unix socket pair whose other end, peer, is the test's
// to write raw bytes into.  Its read buffer starts at bufSize bytes, so
// small inputs reach its growth and compaction.
func splitPeer(t *testing.T, bufSize int) (x *sockRx[[]byte], peer net.Conn) {
	t.Helper()
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatal(err)
	}
	conns := make([]net.Conn, 2)
	for i, fd := range fds {
		f := os.NewFile(uintptr(fd), "socketpair")
		conns[i], err = net.FileConn(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	tr := newSocketTransport(2, 1, blobCodec(), SocketOptions{})
	tr.wire(1, 0, conns[1])
	t.Cleanup(func() { tr.Close(); conns[0].Close() })
	x = tr.rxs[0*2+1]
	x.buf = make([]byte, bufSize)
	return x, conns[0]
}

// failureClass names how a receive stream ended: the peer closed at a
// frame boundary, or the stream held a corrupt or truncated frame.
func failureClass(err error) string {
	switch msg := err.Error(); {
	case err == io.EOF || strings.Contains(msg, "peer closed"):
		return "peer closed"
	case strings.Contains(msg, "corrupt frame"):
		return "corrupt"
	case strings.Contains(msg, "truncated frame"):
		return "truncated"
	default:
		return msg
	}
}

// contiguousFrames is the reference: one parseFrame pass over the whole
// stream, as if it had arrived in a single read.  rest is the tail no
// frame took.
func contiguousFrames(stream []byte) (frames [][]byte, rest []byte, class string) {
	for rest = stream; ; {
		payload, size, err := parseFrame(rest, 1, maxFrame)
		switch {
		case err != nil:
			return frames, rest, failureClass(err)
		case size == 0:
			return frames, rest, failureClass(streamEnd(rest, io.EOF))
		}
		frames = append(frames, payload)
		rest = rest[size:]
	}
}

// splitReads writes stream into x's socket in the pieces cuts chooses
// (one byte a piece of 1 to 256 bytes, then 4 KiB pieces), receiving
// without waiting after each piece; then it closes the peer and
// receives, parking, until the channel fails.  It returns the frames
// and the failure, and whether the read buffer grew and whether it
// moved a partial frame to its front.
func splitReads(t *testing.T, x *sockRx[[]byte], peer net.Conn, stream, cuts []byte) (frames [][]byte, err error, grew, compacted bool) {
	t.Helper()
	start := len(x.buf)
	recv := func(park bool) bool {
		r0, w0 := x.r, x.w
		v, ok, rerr := x.next(park)
		if ok {
			frames = append(frames, v)
		} else if x.r == 0 && r0 > 0 && w0 > r0 {
			compacted = true
		}
		grew = grew || len(x.buf) > start
		err = rerr
		return ok
	}
	for len(stream) > 0 && err == nil {
		n := 4096
		if len(cuts) > 0 {
			n, cuts = 1+int(cuts[0]), cuts[1:]
		}
		n = min(n, len(stream))
		if _, werr := peer.Write(stream[:n]); werr != nil {
			t.Fatalf("peer write: %v", werr)
		}
		stream = stream[n:]
		for recv(false) {
		}
	}
	peer.Close()
	for err == nil {
		recv(true)
	}
	return frames, err, grew, compacted
}

// FuzzRecvSplitReads drives the real receive path — a sockRx reading
// its own socket — with an arbitrary byte stream cut at arbitrary read
// boundaries.  The receives must yield exactly the frames one
// contiguous parseFrame pass yields, then fail the same way: the peer
// closed, a corrupt frame, or a truncated one.
func FuzzRecvSplitReads(f *testing.F) {
	a, b := fuzzFrame(1, []byte("abcd")), fuzzFrame(1, bytes.Repeat([]byte("B"), 20))
	ab := append(append([]byte{}, a...), b...)
	f.Add([]byte{}, []byte{}, uint8(63))                                             // nothing sent: peer closed
	f.Add(ab, []byte{15, 3, 23}, uint8(15))                                          // grows and compacts a 16-byte buffer
	f.Add(ab, []byte{0, 0, 0, 0, 0}, uint8(0))                                       // one byte at a time
	f.Add(ab[:len(ab)-3], []byte{}, uint8(63))                                       // payload cut mid-frame
	f.Add(ab[:len(a)+5], []byte{11}, uint8(7))                                       // header cut
	f.Add(append(append([]byte{}, a...), fuzzFrame(2, nil)...), []byte{5}, uint8(9)) // wrong channel id
	oversized := fuzzFrame(1, []byte("x"))
	binary.LittleEndian.PutUint32(oversized[4:], maxFrame+1) // lying length field
	f.Add(append(append([]byte{}, a...), oversized...), []byte{}, uint8(31))

	f.Fuzz(func(t *testing.T, stream, cuts []byte, bufSize uint8) {
		want, rest, wantClass := contiguousFrames(stream)
		if wantClass == "truncated" && len(rest) >= frameHeaderLen && binary.LittleEndian.Uint32(rest[4:]) > 1<<20 {
			// A cut frame declaring up to maxFrame bytes grows the read
			// buffer that far; keep each run small.
			t.Skip("cut frame declares more than 1 MiB")
		}
		x, peer := splitPeer(t, 1+int(bufSize)%64)
		got, err, _, _ := splitReads(t, x, peer, stream, cuts)
		if len(got) != len(want) {
			t.Fatalf("split reads yielded %d frames, one contiguous pass %d", len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("frame %d: split reads yielded %q, one contiguous pass %q", i, got[i], want[i])
			}
		}
		if class := failureClass(err); class != wantClass {
			t.Fatalf("split reads ended with %v (%s), one contiguous pass with %s", err, class, wantClass)
		}
		if n := x.rcvd.Load(); n != int64(len(want)) {
			t.Fatalf("rcvd = %d after %d frames", n, len(want))
		}
	})
}

// TestRecvSplitReadsGrowAndCompact: the growth seed of
// FuzzRecvSplitReads does reach both ways the read buffer makes room.
func TestRecvSplitReadsGrowAndCompact(t *testing.T) {
	a, b := fuzzFrame(1, []byte("abcd")), fuzzFrame(1, bytes.Repeat([]byte("B"), 20))
	x, peer := splitPeer(t, 16)
	frames, err, grew, compacted := splitReads(t, x, peer, append(a, b...), []byte{15, 3, 23})
	if len(frames) != 2 || failureClass(err) != "peer closed" {
		t.Fatalf("got %d frames and %v, want 2 and peer closed", len(frames), err)
	}
	if !grew || !compacted {
		t.Fatalf("grew %v, compacted %v: the seed no longer reaches both", grew, compacted)
	}
}

// FuzzHello drives the multi-process handshake parser with arbitrary
// byte streams.  It must never panic, and on success the negotiated
// rank must be in range for the mesh size.
func FuzzHello(f *testing.F) {
	const wantP = 4
	hello := func(p, rank int) []byte {
		var b bytes.Buffer
		if err := writeHello(&b, p, rank); err != nil {
			f.Fatal(err)
		}
		return b.Bytes()
	}
	f.Add([]byte{})             // truncated: empty
	f.Add(hello(wantP, 2))      // valid
	f.Add(hello(wantP, 2)[:10]) // truncated mid-hello
	f.Add(hello(3, 1))          // peer built for the wrong P
	f.Add(hello(wantP, 99))     // rank out of range
	bad := hello(wantP, 0)
	bad[0] = 'X' // bad magic
	f.Add(bad)
	old := hello(wantP, 1)
	binary.LittleEndian.PutUint32(old[8:], muxVersion+1) // wrong version
	f.Add(old)

	f.Fuzz(func(t *testing.T, data []byte) {
		rank, err := readHello(bytes.NewReader(data), wantP)
		if err != nil {
			return
		}
		if rank < 0 || rank >= wantP {
			t.Fatalf("accepted out-of-range rank %d (P=%d)", rank, wantP)
		}
		// A successful parse consumed exactly the 20-byte hello and the
		// stream must have carried a valid magic.
		if len(data) < 20 || !bytes.Equal(data[:8], muxMagic[:]) {
			t.Fatalf("accepted hello from %d bytes without the mux magic", len(data))
		}
	})
}

// TestAbortWakesBlockedReceiver: Abort must poison every local inbox so
// a receiver blocked on an empty channel panics with a *TransportError
// instead of hanging — the seam the job service's per-job timeout uses.
func TestAbortWakesBlockedReceiver(t *testing.T) {
	tr, err := NewLoopbackMesh(2, "unix", intCodec(), SocketOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	woke := make(chan any, 1)
	go func() {
		defer func() { woke <- recover() }()
		tr.Chan(0, 1).Recv() // nothing ever sent: blocks until aborted
	}()
	tr.Abort(io.ErrClosedPipe)
	select {
	case r := <-woke:
		te, ok := r.(*TransportError)
		if !ok {
			t.Fatalf("blocked Recv panicked with %T (%v), want *TransportError", r, r)
		}
		if !strings.Contains(te.Error(), "aborted") {
			t.Fatalf("error %q does not identify the abort", te.Error())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("blocked receiver not woken by Abort")
	}
	if tr.Err() == nil {
		t.Fatal("aborted transport reports no error")
	}
}
