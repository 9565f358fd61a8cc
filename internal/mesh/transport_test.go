package mesh

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/fault"
	"repro/internal/grid"
)

// ghostSnapshot runs a multi-iteration ghost refresh and returns every
// rank's boundary planes — the values that actually crossed channels.
func ghostSnapshot(t *testing.T, p, iters int, mode Mode, opt Options) [][]float64 {
	t.Helper()
	const nx, ny, nz = 13, 5, 4
	slabs := grid.SlabDecompose3(nx, ny, nz, p, grid.AxisX)
	res, err := Run(p, mode, opt, func(c *Comm) []float64 {
		g := slabs[c.Rank()].NewLocal3(1)
		g.FillFunc(func(i, j, k int) float64 {
			return float64(1000*slabs[c.Rank()].ToGlobal(i) + 10*j + k)
		})
		for it := 0; it < iters; it++ {
			c.ExchangeGhostPlanesMulti(grid.AxisX, g)
		}
		var out []float64
		out = append(out, g.PackPlane(grid.AxisX, -1, nil)...)
		out = append(out, g.PackPlane(grid.AxisX, g.NX(), nil)...)
		return out
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func assertSameGhosts(t *testing.T, label string, want, got [][]float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: rank count %d vs %d", label, len(got), len(want))
	}
	for r := range want {
		if len(want[r]) != len(got[r]) {
			t.Fatalf("%s rank %d: ghost lengths differ", label, r)
		}
		for i := range want[r] {
			if want[r][i] != got[r][i] {
				t.Fatalf("%s rank %d: ghost %d differs: %v vs %v", label, r, i, got[r][i], want[r][i])
			}
		}
	}
}

// TestSocketExchangeIdentity: the same ghost refresh must produce
// bitwise-identical boundary planes under Sim, in-process Par, and Par
// over a real loopback socket mesh (tcp and unix) — Theorem 1 carried
// across the wire.
func TestSocketExchangeIdentity(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		want := ghostSnapshot(t, p, 3, Sim, DefaultOptions())
		inproc := ghostSnapshot(t, p, 3, Par, DefaultOptions())
		assertSameGhosts(t, fmt.Sprintf("P=%d in-proc", p), want, inproc)
		for _, network := range []string{"tcp", "unix"} {
			tr, err := channel.NewLoopbackMesh(p, network, WireCodec(), channel.SocketOptions{})
			if err != nil {
				t.Fatalf("P=%d %s loopback: %v", p, network, err)
			}
			opt := DefaultOptions()
			opt.Transport = tr
			got := ghostSnapshot(t, p, 3, Par, opt)
			tr.Close()
			assertSameGhosts(t, fmt.Sprintf("P=%d socket/%s", p, network), want, got)
		}
	}
}

// TestSocketTransportSimRejected: external transports are a Par-mode
// feature; Sim must refuse rather than silently ignore one.
func TestSocketTransportSimRejected(t *testing.T) {
	tr, err := channel.NewLoopbackMesh(2, "tcp", WireCodec(), channel.SocketOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	opt := DefaultOptions()
	opt.Transport = tr
	if _, err := Run(2, Sim, opt, func(c *Comm) int { return 0 }); err == nil {
		t.Fatal("Sim accepted an external transport")
	}
}

// TestSocketFlushCoalescing counter-asserts the batching contract: one
// exchange phase queues all of a neighbour's frames and pushes them
// with exactly one flush (and, under the iov limit, one syscall) — no
// per-message writes.
func TestSocketFlushCoalescing(t *testing.T) {
	const (
		p     = 2
		iters = 6
	)
	stats := channel.NewNetStats(p)
	tr, err := channel.NewLoopbackMesh(p, "tcp", WireCodec(), channel.SocketOptions{Stats: stats})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	opt := DefaultOptions()
	opt.Transport = tr
	ghostSnapshot(t, p, iters, Par, opt)
	for _, link := range [][2]int{{0, 1}, {1, 0}} {
		from, to := link[0], link[1]
		flushes := stats.Flushes(from, to)
		if flushes > iters {
			t.Errorf("link %d->%d: %d flushes for %d exchange phases (want <= 1 per phase)",
				from, to, flushes, iters)
		}
		if flushes == 0 {
			t.Errorf("link %d->%d: no flushes recorded", from, to)
		}
		if sys := stats.Syscalls(from, to); sys != flushes {
			t.Errorf("link %d->%d: %d syscalls for %d flushes (frames per phase fit one write)",
				from, to, sys, flushes)
		}
		if frames := stats.WireFrames(from, to); frames < int64(iters) {
			t.Errorf("link %d->%d: only %d frames for %d exchanges", from, to, frames, iters)
		}
	}
}

// TestReusedTransportCountsEachRunOnce: the counters a run is given
// count that run alone.  Two runs on one loopback mesh, each with its
// own ChanStats, count the same traffic, and the second run leaves the
// first run's counters alone.
func TestReusedTransportCountsEachRunOnce(t *testing.T) {
	tr, err := channel.NewLoopbackMesh(2, "unix", WireCodec(), channel.SocketOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	run := func() *channel.NetStats {
		opt := DefaultOptions()
		opt.Transport = tr
		opt.ChanStats = channel.NewNetStats(2)
		ghostSnapshot(t, 2, 3, Par, opt)
		return opt.ChanStats
	}
	first := run()
	sent, received := first.TotalMessages(), first.Received(0, 1)+first.Received(1, 0)
	if sent == 0 || received != sent {
		t.Fatalf("first run counted %d sends and %d receives", sent, received)
	}
	second := run()
	if got := second.TotalMessages(); got != sent {
		t.Errorf("second run counted %d sends, first %d", got, sent)
	}
	if got := first.TotalMessages(); got != sent {
		t.Errorf("the second run added %d sends to the first run's counters", got-sent)
	}
}

// TestSocketDelayDeterminacy: seeded per-send delay and jitter on top
// of the socket transport perturbs timing only — every schedule must
// land on the same boundary values (determinacy under fault injection,
// now across a real wire).
func TestSocketDelayDeterminacy(t *testing.T) {
	want := ghostSnapshot(t, 3, 2, Sim, DefaultOptions())
	for _, seed := range []int64{1, 42, 99} {
		tr, err := channel.NewLoopbackMesh(3, "tcp", WireCodec(), channel.SocketOptions{})
		if err != nil {
			t.Fatal(err)
		}
		opt := DefaultOptions()
		opt.Transport = fault.DelaySends[Msg](tr, seed, 2*time.Millisecond)
		got := ghostSnapshot(t, 3, 2, Par, opt)
		tr.Close()
		assertSameGhosts(t, fmt.Sprintf("seed %d", seed), want, got)
	}
}

// TestRunWorkerDialMesh drives the multi-process code path without
// processes: P goroutines, each with its own per-rank DialMesh
// transport and its own RunWorker call, must reproduce the Sim
// boundary planes bitwise.
func TestRunWorkerDialMesh(t *testing.T) {
	const (
		p          = 3
		iters      = 2
		nx, ny, nz = 13, 5, 4
	)
	want := ghostSnapshot(t, p, iters, Sim, DefaultOptions())

	dir := t.TempDir()
	addrs := make([]string, p)
	for i := range addrs {
		addrs[i] = filepath.Join(dir, fmt.Sprintf("rank-%d.sock", i))
	}
	slabs := grid.SlabDecompose3(nx, ny, nz, p, grid.AxisX)
	got := make([][]float64, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, err := channel.DialMesh("unix", addrs, r, WireCodec(), channel.SocketOptions{})
			if err != nil {
				errs[r] = err
				return
			}
			defer tr.Close()
			got[r], errs[r] = RunWorker(r, tr, DefaultOptions(), func(c *Comm) []float64 {
				g := slabs[c.Rank()].NewLocal3(1)
				g.FillFunc(func(i, j, k int) float64 {
					return float64(1000*slabs[c.Rank()].ToGlobal(i) + 10*j + k)
				})
				for it := 0; it < iters; it++ {
					c.ExchangeGhostPlanesMulti(grid.AxisX, g)
				}
				var out []float64
				out = append(out, g.PackPlane(grid.AxisX, -1, nil)...)
				out = append(out, g.PackPlane(grid.AxisX, g.NX(), nil)...)
				return out
			})
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	assertSameGhosts(t, "worker mesh", want, got)
}

// TestRunWorkerAbortedTransport: a worker blocked in a receive on an
// aborted transport must return a typed error (*channel.TransportError
// carrying the abort reason), not hang — the error path the job
// service's per-job timeout rides.
func TestRunWorkerAbortedTransport(t *testing.T) {
	tr, err := channel.NewLoopbackMesh(2, "unix", WireCodec(), channel.SocketOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	reason := errors.New("per-job deadline exceeded")
	done := make(chan error, 1)
	go func() {
		// Rank 0 blocks forever: rank 1 never runs, so the receive can
		// only be satisfied by the abort.
		_, err := RunWorker(0, tr, DefaultOptions(), func(c *Comm) float64 {
			return c.recv(1)[0]
		})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the worker reach the blocking receive
	tr.Abort(reason)
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("worker on an aborted transport returned nil error")
		}
		var te *channel.TransportError
		if !errors.As(err, &te) {
			t.Fatalf("error %v (%T) does not wrap *channel.TransportError", err, err)
		}
		if !errors.Is(err, reason) {
			t.Fatalf("error %v does not carry the abort reason", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker hung on an aborted transport")
	}
}

// TestRunWorkerPeerClosed: when a peer closes its transport without
// sending, a worker blocked on that channel must fail with a typed
// transport error naming the closed peer, not hang.
func TestRunWorkerPeerClosed(t *testing.T) {
	dir := t.TempDir()
	addrs := []string{filepath.Join(dir, "r0.sock"), filepath.Join(dir, "r1.sock")}

	done := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		tr, err := channel.DialMesh("unix", addrs, 0, WireCodec(), channel.SocketOptions{})
		if err != nil {
			done <- err
			return
		}
		defer tr.Close()
		_, err = RunWorker(0, tr, DefaultOptions(), func(c *Comm) float64 {
			return c.recv(1)[0] // rank 1 exits without ever sending
		})
		done <- err
	}()
	go func() {
		defer wg.Done()
		tr, err := channel.DialMesh("unix", addrs, 1, WireCodec(), channel.SocketOptions{})
		if err != nil {
			return
		}
		time.Sleep(20 * time.Millisecond) // let rank 0 block first
		tr.Close()
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("worker whose peer vanished returned nil error")
		}
		var te *channel.TransportError
		if !errors.As(err, &te) {
			t.Fatalf("error %v (%T) does not wrap *channel.TransportError", err, err)
		}
		if !strings.Contains(err.Error(), "peer closed") {
			t.Fatalf("error %q does not identify the closed peer", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker hung after its peer closed")
	}
	wg.Wait()
}
