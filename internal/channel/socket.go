// Socket transport: the paper's channel model carried over real framed
// TCP or Unix-domain connections.
//
// # Wire format
//
// Each unordered pair of ranks {i, j} shares exactly one connection;
// both directed channels i->j and j->i are multiplexed onto it (each
// side writes its own direction, so there is a single writer and a
// single reader per connection end).  Every message is one frame:
//
//	offset 0  uint32 LE  channel id = from*P + to
//	offset 4  uint32 LE  payload length in bytes
//	offset 8  payload    Codec-encoded value
//
// The channel id is redundant — a connection end carries exactly one
// directed channel — which is precisely why it is sent: the reader
// validates it against the expected id on every frame, so framing
// corruption or desynchronisation is detected immediately instead of
// silently mis-delivering data.  Multi-process meshes additionally
// exchange a 20-byte hello (magic "ARCHMUX1", version, P, rank) when a
// connection is established.
//
// # Coalescing and flushing
//
// Send never writes to the socket.  Frames are appended to one
// per-destination buffer (the write coalescer); Flush offers it to the
// kernel without waiting, so a single write carries every frame queued
// for a neighbour since the previous flush.  What the socket buffer
// does not take joins the link's backlog, written by a per-link drain
// goroutine started on the first overflow: that is where the model's
// infinite slack lives, and why a rank never blocks in Send or Flush.
// TCP connections also set TCP_NODELAY: batching is decided by the
// runtime's phase structure, not by Nagle's timer.  Liveness is the
// flush protocol's job — see Transport.Flush.
//
// # Who reads the socket
//
// The receiving rank does, on its own goroutine: Recv and TryRecv read,
// validate and decode frames straight from the rank's connection end,
// through one read buffer and one pure parser (parseFrame).  There is
// no reader goroutine and no queue between the wire and the rank.  An
// empty receive polls the connection for pollBudget, yielding between
// looks, and only then parks in the netpoller; Abort (and any transport
// failure) wakes parked ranks through an expired deadline.
package channel

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	frameHeaderLen = 8
	// sockBufSize is the starting size of a link's coalescer and of a
	// receive buffer; either grows, once and for good, to the largest
	// flush or frame it meets.
	sockBufSize = 64 << 10
	// maxFrame bounds a payload in bytes.  An incoming frame past it
	// fails the transport rather than attempting a huge allocation from
	// a corrupt length field.
	maxFrame = 64 << 20

	defaultDialTimeout = 10 * time.Second

	muxVersion = 1
)

var muxMagic = [8]byte{'A', 'R', 'C', 'H', 'M', 'U', 'X', '1'}

// TransportError is the panic value raised by a blocking Recv on a
// failed or aborted transport (and by Send on a failed socket link).
// The sched supervisor converts panics to errors, so transport failures
// surface as ordinary run errors; errors.As / errors.Is reach the
// underlying cause via Unwrap.
type TransportError struct{ Err error }

func (e *TransportError) Error() string { return "transport failure: " + e.Err.Error() }
func (e *TransportError) Unwrap() error { return e.Err }

// SocketOptions configures a socket transport.
type SocketOptions struct {
	// Stats, when non-nil, receives per-link wire counters (frames,
	// bytes, flushes, syscalls) in addition to whatever endpoint-level
	// Counted decorators the runtime installs.
	Stats *NetStats
	// DialTimeout bounds the multi-process rendezvous: how long DialMesh
	// keeps retrying peers that have not started listening yet
	// (default 10s).
	DialTimeout time.Duration
}

func (o SocketOptions) dialTimeout() time.Duration {
	if o.DialTimeout > 0 {
		return o.DialTimeout
	}
	return defaultDialTimeout
}

// SocketTransport carries the channel network over framed socket
// connections.  Construct one with NewLoopbackMesh (full mesh inside
// one process, for testing and the `-backend socket` mode) or DialMesh
// (one transport per rank process, for `-procs`).
type SocketTransport[T any] struct {
	p     int
	rank  int // -1 when the full mesh is local (loopback)
	codec Codec[T]
	opt   SocketOptions

	eps   []Endpoint[T]  // index from*p+to; nil where not local
	links []*sockLink[T] // send halves, same index; nil where the sender is not local
	rxs   []*sockRx[T]   // receive halves, same index; nil where the receiver is not local
	selfs []*Chan[T]     // selfs[r] is the channel r->r of a local rank, which needs no wire
	conns []net.Conn

	errv     atomic.Value // of error
	failOnce sync.Once
	failed   chan struct{} // closed by fail, for the waits no socket deadline can reach
	closed   atomic.Bool
	wg       sync.WaitGroup // drain goroutines of links that overflowed
	cleanup  func()
}

func newSocketTransport[T any](p, rank int, codec Codec[T], opt SocketOptions) *SocketTransport[T] {
	if p <= 0 {
		panic(fmt.Sprintf("channel: socket transport size must be positive, got %d", p))
	}
	if codec.Append == nil || codec.Decode == nil {
		panic("channel: socket transport requires a complete Codec")
	}
	if opt.Stats != nil && opt.Stats.P() != p {
		panic(fmt.Sprintf("channel: stats sized for %d processes, transport has %d", opt.Stats.P(), p))
	}
	return &SocketTransport[T]{
		p:      p,
		rank:   rank,
		codec:  codec,
		opt:    opt,
		eps:    make([]Endpoint[T], p*p),
		links:  make([]*sockLink[T], p*p),
		rxs:    make([]*sockRx[T], p*p),
		selfs:  make([]*Chan[T], p),
		failed: make(chan struct{}),
	}
}

// P returns the number of processes in the network.
func (t *SocketTransport[T]) P() int { return t.p }

// Chan returns the endpoint for the channel from -> to.  It panics for
// channels that do not touch this transport's local rank(s).
func (t *SocketTransport[T]) Chan(from, to int) Endpoint[T] {
	if from < 0 || from >= t.p || to < 0 || to >= t.p {
		panic(fmt.Sprintf("channel: endpoint out of range: from=%d to=%d p=%d", from, to, t.p))
	}
	e := t.eps[from*t.p+to]
	if e == nil {
		panic(fmt.Sprintf("channel: channel %d->%d is not local to rank %d", from, to, t.rank))
	}
	return e
}

// Flush pushes every frame queued on rank from's outbound links to the
// wire (one write per neighbour with traffic).  It never blocks: what
// the kernel buffer does not take goes to the link's drain goroutine.
func (t *SocketTransport[T]) Flush(from int) {
	if from < 0 || from >= t.p {
		panic(fmt.Sprintf("channel: flush rank out of range: %d (p=%d)", from, t.p))
	}
	base := from * t.p
	for to := 0; to < t.p; to++ {
		if l := t.links[base+to]; l != nil {
			l.flush()
		}
	}
}

// Err returns the first transport failure, or nil.
func (t *SocketTransport[T]) Err() error {
	if err, ok := t.errv.Load().(error); ok {
		return err
	}
	return nil
}

// Pending returns the number of values sent but not yet received on the
// channels whose two ends are both local: Σ sent − received, so a frame
// still in a coalescer, a drain backlog or a kernel socket buffer
// counts exactly like one already read off the wire.
func (t *SocketTransport[T]) Pending() int {
	total := 0
	for idx, l := range t.links {
		if rx := t.rxs[idx]; l != nil && rx != nil {
			total += int(l.sent.Load() - rx.rcvd.Load())
		}
	}
	for _, q := range t.selfs {
		if q != nil {
			total += q.Len()
		}
	}
	return total
}

// Close flushes the local links, closes every connection (unblocking
// peer readers) and stops the drain goroutines.  A per-rank transport
// first waits for its drain backlogs to reach the kernel: the peers are
// other processes that may still need this rank's last frames.  On a
// loopback mesh every reader is in this process and Close means the run
// is over, so an unread backlog is dropped instead of waited for.
func (t *SocketTransport[T]) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	for _, l := range t.links {
		if l != nil {
			l.flush()
			l.finish(t.rank >= 0)
		}
	}
	for _, c := range t.conns {
		c.Close()
	}
	t.wg.Wait()
	if t.cleanup != nil {
		t.cleanup()
	}
	return nil
}

// Abort poisons the transport with err: Err becomes non-nil and every
// rank parked in a receive wakes and panics with a *TransportError the
// runtime supervisor converts to an ordinary run error.  This is the
// cooperative kill switch for runs that must terminate even from inside
// a blocking receive — a caller's deadline, and the Par runtime's own
// deadlock and stall teardown.  An aborted transport is permanently
// failed; build a fresh mesh for the next run.
func (t *SocketTransport[T]) Abort(err error) { t.fail(abortError(err)) }

// fail poisons the transport: Err becomes non-nil, and an expired
// deadline on every connection wakes the ranks parked in the netpoller
// (and the drain goroutines parked in a write), which find Err set.
func (t *SocketTransport[T]) fail(err error) {
	t.failOnce.Do(func() {
		t.errv.Store(err)
		close(t.failed)
		for _, c := range t.conns {
			c.SetDeadline(time.Unix(1, 0))
		}
	})
}

// rawConn returns the non-blocking handle of a connection end.  Every
// connection the transport builds is a *net.TCPConn or *net.UnixConn.
func rawConn(conn net.Conn) syscall.RawConn {
	rc, err := conn.(syscall.Conn).SyscallConn()
	if err != nil {
		panic(fmt.Sprintf("channel: raw connection: %v", err))
	}
	return rc
}

// sockLink is the send half of one directed channel: the per-destination
// write coalescer feeding one connection end.
//
// Infinite slack lives here.  flush offers the coalesced frames to the
// kernel without ever waiting; whatever the socket buffer does not take
// joins the link's backlog, written by a drain goroutine started on the
// first overflow.  A rank therefore never blocks in Send or Flush,
// however much it sends before anyone receives.
type sockLink[T any] struct {
	t      *SocketTransport[T]
	conn   net.Conn
	rc     syscall.RawConn
	from   int
	to     int
	chanID uint32
	cell   *statsCell
	sent   atomic.Int64 // frames ever queued; sent − the reader's rcvd is the channel's Len

	mu   sync.Mutex
	out  []byte // frames queued since the last flush
	werr error  // sticky write failure

	// tryWrite is prebuilt, so handing it to RawConn.Write allocates
	// nothing: it writes out from byte woff until the kernel would block.
	tryWrite func(fd uintptr) bool
	woff     int
	wcalls   int
	wfail    error

	// Overflow: the bytes the kernel did not take, in wire order.  While
	// there is a backlog or the drain goroutine is mid-write, flush
	// appends here instead of writing, so bytes never overtake each
	// other.  The drain goroutine writes the backlog and hands its
	// storage back as spare.
	backlog  []byte
	spare    []byte
	writing  bool
	draining bool // the drain goroutine exists
	closing  bool
	wake     *sync.Cond // on mu: backlog grew, emptied, or the link is closing
}

func newSockLink[T any](t *SocketTransport[T], conn net.Conn, from, to int) *sockLink[T] {
	l := &sockLink[T]{t: t, conn: conn, rc: rawConn(conn), from: from, to: to, chanID: uint32(from*t.p + to)}
	if t.opt.Stats != nil {
		l.cell = t.opt.Stats.cell(from, to)
	}
	l.wake = sync.NewCond(&l.mu)
	// Pre-warm the coalescer so first use doesn't allocate inside a
	// measured solve.
	l.out = make([]byte, 0, sockBufSize)
	l.tryWrite = func(fd uintptr) bool {
		for l.woff < len(l.out) {
			n, err := syscall.Write(int(fd), l.out[l.woff:])
			switch {
			case err == syscall.EINTR:
				continue
			case err == syscall.EAGAIN:
				return true
			case err != nil:
				l.wfail = os.NewSyscallError("write", err)
				return true
			}
			l.wcalls++
			l.woff += n
		}
		return true
	}
	return l
}

// send frames v into the coalescer.  It never touches the socket.
func (l *sockLink[T]) send(v T) {
	l.mu.Lock()
	if l.werr != nil {
		err := l.werr
		l.mu.Unlock()
		panic(&TransportError{Err: err})
	}
	off := len(l.out)
	l.out = l.t.codec.Append(append(l.out, make([]byte, frameHeaderLen)...), v)
	payload := len(l.out) - off - frameHeaderLen
	if payload > maxFrame {
		l.mu.Unlock()
		panic(fmt.Sprintf("channel: frame payload %d bytes exceeds MaxFrame %d on %d->%d",
			payload, maxFrame, l.from, l.to))
	}
	binary.LittleEndian.PutUint32(l.out[off:], l.chanID)
	binary.LittleEndian.PutUint32(l.out[off+4:], uint32(payload))
	l.sent.Add(1)
	if l.cell != nil {
		l.cell.wireFrames.Add(1)
		l.cell.wireBytes.Add(int64(payload + frameHeaderLen))
	}
	l.mu.Unlock()
}

// flush offers every buffered frame to the kernel without waiting and
// hands what it does not take to the drain goroutine.  Empty flushes
// are free and uncounted.
func (l *sockLink[T]) flush() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.out) == 0 {
		return
	}
	l.woff, l.wcalls, l.wfail = 0, 0, nil
	if l.werr == nil && len(l.backlog) == 0 && !l.writing {
		if err := l.rc.Write(l.tryWrite); err != nil && l.wfail == nil {
			l.wfail = err
		}
		if l.wfail != nil {
			l.writeFailed(l.wfail)
		}
	}
	if l.cell != nil {
		l.cell.flushes.Add(1)
		l.cell.syscalls.Add(int64(l.wcalls))
	}
	if l.werr == nil && l.woff < len(l.out) {
		l.backlog = append(l.backlog, l.out[l.woff:]...)
		if !l.draining {
			l.draining = true
			l.t.wg.Add(1)
			go l.drain()
		}
		l.wake.Broadcast()
	}
	l.out = l.out[:0]
}

// writeFailed records a sticky write failure and, unless the transport
// is being closed under the write, fails the transport with it.
func (l *sockLink[T]) writeFailed(err error) {
	l.werr = err
	if !l.t.closed.Load() {
		l.t.fail(fmt.Errorf("transport: write %d->%d: %w", l.from, l.to, err))
	}
}

// drain is the overflow writer of one link: it parks until flush leaves
// a backlog and writes it with one ordinary blocking write.  Started by
// the first flush the kernel buffer could not absorb; links that never
// overflow never have one.
func (l *sockLink[T]) drain() {
	defer l.t.wg.Done()
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		for len(l.backlog) == 0 && !l.closing {
			l.wake.Wait()
		}
		if len(l.backlog) == 0 {
			return
		}
		batch := l.backlog
		l.backlog, l.spare, l.writing = l.spare[:0], nil, true
		l.mu.Unlock()
		_, err := l.conn.Write(batch)
		l.mu.Lock()
		l.writing, l.spare = false, batch[:0]
		if l.cell != nil {
			l.cell.syscalls.Add(1)
		}
		if err != nil {
			l.writeFailed(err)
			l.backlog = l.backlog[:0]
		}
		l.wake.Broadcast()
	}
}

// finish tells the drain goroutine to exit once its backlog is written;
// with wait it first blocks until that has happened (or the link failed).
func (l *sockLink[T]) finish(wait bool) {
	l.mu.Lock()
	for wait && l.werr == nil && (len(l.backlog) > 0 || l.writing) {
		l.wake.Wait()
	}
	l.closing = true
	l.wake.Broadcast()
	l.mu.Unlock()
}

// sockRx is the receive half of one directed channel: the connection
// end itself, read, validated and decoded by the receiving rank on its
// own goroutine — the channel's single reader is literally the reader
// of the socket.  It is not safe for concurrent use, exactly as the
// model's single-reader channels need not be.
type sockRx[T any] struct {
	t    *SocketTransport[T]
	rc   syscall.RawConn
	from int
	to   int
	want uint32
	rcvd atomic.Int64 // frames ever received

	buf  []byte // buf[r:w] holds bytes read off the wire and not yet parsed
	r, w int
	rerr error // what ended the byte stream (io.EOF, a read error)
	dead error // sticky failure reported by every later receive

	// tryRead is prebuilt, so handing it to RawConn.Read allocates
	// nothing.  It reads once into buf[w:]; on an empty socket it gives
	// up unless park is set, in which case RawConn.Read parks in the
	// netpoller and calls it again once the socket is readable.
	tryRead func(fd uintptr) bool
	park    bool
	rn      int
	rfail   error
}

func newSockRx[T any](t *SocketTransport[T], conn net.Conn, from, to int) *sockRx[T] {
	x := &sockRx[T]{t: t, rc: rawConn(conn), from: from, to: to, want: uint32(from*t.p + to)}
	x.buf = make([]byte, sockBufSize)
	x.tryRead = func(fd uintptr) bool {
		for {
			x.rn, x.rfail = syscall.Read(int(fd), x.buf[x.w:])
			switch x.rfail {
			case syscall.EINTR:
				continue
			case syscall.EAGAIN:
				return !x.park
			}
			return true
		}
	}
	return x
}

// fill makes room for the frame being assembled (parseFrame has
// accepted its header if it is whole), reads once — parking until the
// connection is readable when park is set — and reports whether the
// stream moved: bytes arrived or it ended.
func (x *sockRx[T]) fill(park bool) bool {
	need := frameHeaderLen
	if x.w-x.r >= frameHeaderLen {
		need += int(binary.LittleEndian.Uint32(x.buf[x.r+4:]))
	}
	if x.r == x.w {
		x.r, x.w = 0, 0
	}
	if x.r > 0 && (x.w == len(x.buf) || x.r+need > len(x.buf)) {
		x.w = copy(x.buf, x.buf[x.r:x.w])
		x.r = 0
	}
	if need > len(x.buf) {
		x.buf = append(x.buf[:x.w], make([]byte, need-x.w)...)
	}
	x.park = park
	if err := x.rc.Read(x.tryRead); err != nil {
		x.rerr = err
		return true
	}
	switch {
	case x.rfail == syscall.EAGAIN:
		return false
	case x.rfail != nil:
		x.rerr = os.NewSyscallError("read", x.rfail)
	case x.rn == 0:
		x.rerr = io.EOF
	default:
		x.w += x.rn
	}
	return true
}

// next returns the next value of the channel.  Without park it gives up
// as soon as the kernel has nothing more to offer; with park it parks.
// Frames already read are always delivered before a failure is.
func (x *sockRx[T]) next(park bool) (v T, ok bool, err error) {
	for x.dead == nil {
		payload, size, ferr := parseFrame(x.buf[x.r:x.w], x.want, maxFrame)
		switch {
		case size > 0:
			x.r += size
			if v, ferr = x.t.codec.Decode(payload); ferr == nil {
				x.rcvd.Add(1)
				return v, true, nil
			}
			x.die(fmt.Errorf("decode frame: %w", ferr))
		case ferr != nil:
			x.die(ferr)
		case x.rerr != nil:
			x.die(streamEnd(x.buf[x.r:x.w], x.rerr))
		case !x.fill(park):
			return v, false, nil
		}
	}
	return v, false, x.dead
}

// die makes a receive failure final: it is recorded in dead, and the
// rest of the buffer, which can no longer be framed, is dropped.
func (x *sockRx[T]) die(ferr error) {
	x.r = x.w
	switch terr := x.t.Err(); {
	case terr != nil:
		// The transport failed or was aborted under the read.
		x.dead = terr
	case x.t.closed.Load():
		x.dead = fmt.Errorf("transport: channel %d->%d: transport closed", x.from, x.to)
	case ferr == io.EOF:
		// Clean shutdown at a frame boundary: the peer finished and
		// closed.  Only a receiver still waiting on this channel is
		// affected.
		x.dead = fmt.Errorf("transport: channel %d->%d: peer closed", x.from, x.to)
	default:
		x.t.fail(fmt.Errorf("transport: %w on %d->%d", ferr, x.from, x.to))
		x.dead = x.t.Err()
	}
}

// sockEndpoint presents one directed channel as an Endpoint.  link is
// nil where the sender is not local, rx where the receiver is not.
type sockEndpoint[T any] struct {
	t    *SocketTransport[T]
	link *sockLink[T]
	rx   *sockRx[T]
	to   int
}

func (e *sockEndpoint[T]) Send(v T) {
	if e.link == nil {
		panic("channel: send on a channel whose sender is not local to this transport")
	}
	e.link.send(v)
}

// Recv is the whole wait policy over a socket: look, push out our own
// frames, poll for pollBudget, park in the netpoller.
func (e *sockEndpoint[T]) Recv() T {
	if v, ok := e.TryRecv(); ok {
		return v
	}
	// About to wait: our own coalesced frames may be exactly what the
	// peer needs before it can send to us.
	e.t.Flush(e.to)
	if v, ok := pollRecv[T](e); ok {
		return v
	}
	v, _, err := e.rx.next(true)
	if err != nil {
		panic(&TransportError{Err: err})
	}
	return v
}

// TryRecv returns a value if one can be had without waiting.  A failed
// channel reports false here; the failure surfaces from Recv.
func (e *sockEndpoint[T]) TryRecv() (T, bool) {
	if e.rx == nil {
		panic("channel: receive on a channel whose receiver is not local to this transport")
	}
	v, ok, _ := e.rx.next(false)
	return v, ok
}

// Len is sent − received.  Only a transport holding both ends of the
// channel knows both counts; a per-rank transport reports zero.
func (e *sockEndpoint[T]) Len() int {
	if e.link == nil || e.rx == nil {
		return 0
	}
	return int(e.link.sent.Load() - e.rx.rcvd.Load())
}

// selfEndpoint is the channel of a rank to itself: an in-memory queue,
// no wire.  Only the rank itself can fill it, so a receive that finds
// it empty can only ever end by the transport failing.
type selfEndpoint[T any] struct {
	t *SocketTransport[T]
	q *Chan[T]
}

func (e *selfEndpoint[T]) Send(v T)           { e.q.Send(v) }
func (e *selfEndpoint[T]) TryRecv() (T, bool) { return e.q.TryRecv() }
func (e *selfEndpoint[T]) Len() int           { return e.q.Len() }

func (e *selfEndpoint[T]) Recv() T {
	if v, ok := e.q.TryRecv(); ok {
		return v
	}
	<-e.t.failed
	panic(&TransportError{Err: e.t.Err()})
}

// parseFrame reads the frame at the front of b: the header's channel
// id must equal want and the payload length must not exceed limit.  It
// returns the payload as a view into b and the frame's size in bytes,
// or size 0 while the frame is incomplete.  A header it rejects needs
// no payload: the defect is named from the header alone.  It is a pure
// parser over a byte slice, so the fuzz targets drive it directly.
func parseFrame(b []byte, want uint32, limit int) (payload []byte, size int, err error) {
	if len(b) < frameHeaderLen {
		return nil, 0, nil
	}
	id := binary.LittleEndian.Uint32(b[0:4])
	n := int(binary.LittleEndian.Uint32(b[4:8]))
	if id != want {
		return nil, 0, fmt.Errorf("corrupt frame: channel id %d, want %d", id, want)
	}
	if n > limit {
		return nil, 0, fmt.Errorf("corrupt frame: payload %d bytes exceeds MaxFrame %d", n, limit)
	}
	if len(b) < frameHeaderLen+n {
		return nil, 0, nil
	}
	return b[frameHeaderLen : frameHeaderLen+n], frameHeaderLen + n, nil
}

// streamEnd names how a byte stream that ended with cause left rest,
// its unparsed tail: exactly io.EOF when it ended cleanly at a frame
// boundary, otherwise an error naming the cut.
func streamEnd(rest []byte, cause error) error {
	switch {
	case len(rest) == 0 && cause == io.EOF:
		return io.EOF
	case len(rest) == 0:
		return fmt.Errorf("read frame: %w", cause)
	case cause == io.EOF:
		cause = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("truncated frame (%d bytes of it arrived): %w", len(rest), cause)
}

func setNoDelay(conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
}

// wire attaches rank `local`'s end of its connection with rank `peer`:
// the send half of local->peer and the receive half of peer->local.
func (t *SocketTransport[T]) wire(local, peer int, conn net.Conn) {
	setNoDelay(conn)
	t.conns = append(t.conns, conn)
	t.links[local*t.p+peer] = newSockLink(t, conn, local, peer)
	t.rxs[peer*t.p+local] = newSockRx(t, conn, peer, local)
}

func (t *SocketTransport[T]) buildEndpoints() {
	for from := 0; from < t.p; from++ {
		for to := 0; to < t.p; to++ {
			idx := from*t.p + to
			switch link, rx := t.links[idx], t.rxs[idx]; {
			case from == to && t.selfs[to] != nil:
				t.eps[idx] = &selfEndpoint[T]{t: t, q: t.selfs[to]}
			case link != nil || rx != nil:
				t.eps[idx] = &sockEndpoint[T]{t: t, link: link, rx: rx, to: to}
			}
		}
	}
}

// NewLoopbackMesh builds a full socket mesh for P ranks inside one
// process: every pair of ranks is connected over a real loopback
// connection ("tcp" on 127.0.0.1, or "unix" in a private temp
// directory), so the whole framed wire path — coalescing, non-blocking
// writes, direct reads, pooled decode — is exercised without spawning
// processes.  An idle mesh owns no goroutines.  The result plugs into sched/mesh exactly like
// the in-process Net.
func NewLoopbackMesh[T any](p int, network string, codec Codec[T], opt SocketOptions) (*SocketTransport[T], error) {
	t := newSocketTransport(p, -1, codec, opt)
	for r := 0; r < p; r++ {
		t.selfs[r] = NewChan[T]()
	}
	if p > 1 {
		var (
			ln  net.Listener
			err error
		)
		switch network {
		case "tcp":
			ln, err = net.Listen("tcp", "127.0.0.1:0")
		case "unix":
			dir, derr := os.MkdirTemp("", "archmux")
			if derr != nil {
				return nil, fmt.Errorf("transport: %w", derr)
			}
			t.cleanup = func() { os.RemoveAll(dir) }
			ln, err = net.Listen("unix", filepath.Join(dir, "mesh.sock"))
		default:
			return nil, fmt.Errorf("transport: unsupported network %q (want tcp or unix)", network)
		}
		if err != nil {
			if t.cleanup != nil {
				t.cleanup()
			}
			return nil, fmt.Errorf("transport: listen: %w", err)
		}
		defer ln.Close()
		for i := 0; i < p; i++ {
			for j := i + 1; j < p; j++ {
				// One pending connection at a time keeps dial/accept
				// pairing trivially in order.
				ci, err := net.Dial(ln.Addr().Network(), ln.Addr().String())
				if err != nil {
					t.Close()
					return nil, fmt.Errorf("transport: dial pair %d-%d: %w", i, j, err)
				}
				cj, err := ln.Accept()
				if err != nil {
					ci.Close()
					t.Close()
					return nil, fmt.Errorf("transport: accept pair %d-%d: %w", i, j, err)
				}
				t.wire(i, j, ci)
				t.wire(j, i, cj)
			}
		}
	}
	t.buildEndpoints()
	return t, nil
}

func writeHello(conn io.Writer, p, rank int) error {
	var b [20]byte
	copy(b[:8], muxMagic[:])
	binary.LittleEndian.PutUint32(b[8:], muxVersion)
	binary.LittleEndian.PutUint32(b[12:], uint32(p))
	binary.LittleEndian.PutUint32(b[16:], uint32(rank))
	_, err := conn.Write(b[:])
	return err
}

// readHello parses the 20-byte multi-process handshake (magic,
// version, P, rank) from r, validating every field against wantP.  A
// pure parser — DialMesh calls it on fresh connections and the fuzz
// targets on arbitrary byte streams.
func readHello(r io.Reader, wantP int) (rank int, err error) {
	var b [20]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, fmt.Errorf("reading hello: %w", err)
	}
	if [8]byte(b[:8]) != muxMagic {
		return 0, errors.New("bad magic (not an archetype mux peer)")
	}
	if v := binary.LittleEndian.Uint32(b[8:]); v != muxVersion {
		return 0, fmt.Errorf("protocol version %d, want %d", v, muxVersion)
	}
	if p := int(binary.LittleEndian.Uint32(b[12:])); p != wantP {
		return 0, fmt.Errorf("peer built for P=%d, want P=%d", p, wantP)
	}
	got := int(binary.LittleEndian.Uint32(b[16:]))
	if got < 0 || got >= wantP {
		return 0, fmt.Errorf("peer rank %d out of range (P=%d)", got, wantP)
	}
	return got, nil
}

func dialRetry(network, addr string, deadline time.Time) (net.Conn, error) {
	for {
		conn, err := net.DialTimeout(network, addr, time.Until(deadline))
		if err == nil {
			return conn, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// DialMesh builds the per-rank transport of a multi-process mesh:
// rank i listens at addrs[i], dials every lower rank (retrying until
// the peer's listener appears, bounded by DialTimeout), and accepts
// every higher rank, validating the hello handshake on each
// connection.  Only the channels touching `rank` are materialised;
// Chan panics for any other pair.  All ranks must be started with the
// same addrs slice.
func DialMesh[T any](network string, addrs []string, rank int, codec Codec[T], opt SocketOptions) (*SocketTransport[T], error) {
	p := len(addrs)
	if rank < 0 || rank >= p {
		return nil, fmt.Errorf("transport: rank %d out of range (P=%d)", rank, p)
	}
	if network != "tcp" && network != "unix" {
		return nil, fmt.Errorf("transport: unsupported network %q (want tcp or unix)", network)
	}
	t := newSocketTransport(p, rank, codec, opt)
	t.selfs[rank] = NewChan[T]()
	if p > 1 {
		deadline := time.Now().Add(opt.dialTimeout())
		if network == "unix" {
			os.Remove(addrs[rank])
		}
		ln, err := net.Listen(network, addrs[rank])
		if err != nil {
			return nil, fmt.Errorf("transport: rank %d listen %s: %w", rank, addrs[rank], err)
		}
		defer ln.Close()
		peers := make([]net.Conn, p)
		abort := func(err error) (*SocketTransport[T], error) {
			for _, c := range peers {
				if c != nil {
					c.Close()
				}
			}
			return nil, err
		}
		for j := 0; j < rank; j++ {
			conn, err := dialRetry(network, addrs[j], deadline)
			if err != nil {
				return abort(fmt.Errorf("transport: rank %d dial rank %d (%s): %w", rank, j, addrs[j], err))
			}
			conn.SetDeadline(deadline)
			if err := writeHello(conn, p, rank); err != nil {
				conn.Close()
				return abort(fmt.Errorf("transport: rank %d hello to rank %d: %w", rank, j, err))
			}
			got, err := readHello(conn, p)
			if err == nil && got != j {
				err = fmt.Errorf("answered as rank %d", got)
			}
			if err != nil {
				conn.Close()
				return abort(fmt.Errorf("transport: rank %d handshake with rank %d: %w", rank, j, err))
			}
			conn.SetDeadline(time.Time{})
			peers[j] = conn
		}
		type deadliner interface{ SetDeadline(time.Time) error }
		if d, ok := ln.(deadliner); ok {
			d.SetDeadline(deadline)
		}
		for need := p - 1 - rank; need > 0; need-- {
			conn, err := ln.Accept()
			if err != nil {
				return abort(fmt.Errorf("transport: rank %d accept: %w", rank, err))
			}
			conn.SetDeadline(deadline)
			got, err := readHello(conn, p)
			if err == nil && got <= rank {
				err = fmt.Errorf("unexpected dial from rank %d", got)
			}
			if err == nil && peers[got] != nil {
				err = fmt.Errorf("duplicate connection from rank %d", got)
			}
			if err == nil {
				err = writeHello(conn, p, rank)
			}
			if err != nil {
				conn.Close()
				return abort(fmt.Errorf("transport: rank %d handshake: %w", rank, err))
			}
			conn.SetDeadline(time.Time{})
			peers[got] = conn
		}
		for j, conn := range peers {
			if conn == nil {
				continue
			}
			t.wire(rank, j, conn)
		}
	}
	t.buildEndpoints()
	return t, nil
}
