package channel

import (
	"bytes"
	"encoding/binary"
	"io"
	"strings"
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
// payload beyond MaxFrame, and must classify every malformed stream as
// an error rather than silently mis-framing — the properties the
// corrupt/truncated/oversized cases of socket_test.go pin down at the
// transport level.
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
		r := bytes.NewReader(data)
		var payload []byte
		var err error
		frames := 0
		for {
			payload, err = readFrame(r, want, maxFrame, payload)
			if err != nil {
				break
			}
			if len(payload) > maxFrame {
				t.Fatalf("accepted %d-byte payload past MaxFrame %d", len(payload), maxFrame)
			}
			frames++
			if frames > len(data) {
				t.Fatal("parsed more frames than input bytes")
			}
		}
		if err == io.EOF {
			// Clean EOF is only legal at an exact frame boundary: every
			// consumed byte belonged to an accepted frame.
			if r.Len() != 0 {
				t.Fatalf("clean EOF with %d bytes unconsumed", r.Len())
			}
			return
		}
		msg := err.Error()
		if !strings.Contains(msg, "frame") {
			t.Fatalf("malformed stream error %q does not name the frame", msg)
		}
	})
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
