package mesh

import (
	"runtime/debug"
	"testing"

	"repro/internal/grid"
)

func TestBufferArenaSizeClasses(t *testing.T) {
	// Round trips for assorted sizes within the pooled range.
	for _, n := range []int{1, 63, 64, 65, 1000, 4096, 1 << 20} {
		b := getBuf(n)
		if len(b) != n {
			t.Fatalf("getBuf(%d) length %d", n, len(b))
		}
		putBuf(b)
		b2 := getBuf(n)
		if len(b2) != n {
			t.Fatalf("recycled getBuf(%d) length %d", n, len(b2))
		}
	}
	if getBuf(0) != nil {
		t.Fatal("getBuf(0) must be nil")
	}
	// Out-of-range and foreign slices are silently dropped.
	putBuf(nil)
	putBuf(make([]float64, 10))    // cap not a pooled power of two
	putBuf(make([]float64, 1<<23)) // beyond maxClassBits
	huge := getBuf(1<<22 + 1)      // beyond pooled range: plain allocation
	if len(huge) != 1<<22+1 {
		t.Fatalf("oversized getBuf length %d", len(huge))
	}
	putBuf(huge)
}

// TestSteadyStateExchangeAllocs enforces the pooled fast path's central
// claim: once warm, a full leapfrog-style exchange pair (the stepper's
// Start/Finish halves, up then down, of two grids) allocates zero heap
// objects — the pack
// buffers recycle through the arena, the channel queues reuse their
// backing arrays, and the scheduler's bookkeeping is allocation-free.
// GC is disabled for the measurement so the pools cannot be cleared
// mid-test.
func TestSteadyStateExchangeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts only hold in normal builds")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const p = 2
	const warm = 8
	const runs = 50
	slabs := grid.SlabDecompose3(8, 4, 4, p, grid.AxisX)
	for _, mode := range bothModes {
		opt := Options{Combine: true} // no profile, no obs: the bare message path
		res, err := Run(p, mode, opt, func(c *Comm) float64 {
			sl := slabs[c.Rank()]
			gs := []*grid.G3{sl.NewLocal3(1), sl.NewLocal3(1)}
			up, down := chainNeighbours(c)
			step := func() {
				c.StartSendUpTo(grid.AxisX, up, gs...)
				c.FinishSendUpTo(grid.AxisX, down, gs...)
				c.StartSendDownTo(grid.AxisX, down, gs...)
				c.FinishSendDownTo(grid.AxisX, up, gs...)
			}
			for i := 0; i < warm; i++ {
				step()
			}
			if c.Rank() == 0 {
				return testing.AllocsPerRun(runs, step)
			}
			// AllocsPerRun executes its function runs+1 times (one
			// warm-up call plus the measured runs); the peer must match
			// exactly or the exchange deadlocks.
			for i := 0; i < runs+1; i++ {
				step()
			}
			return 0
		})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res[0] != 0 {
			t.Errorf("%v: steady-state exchange allocates %v objects per step, want 0", mode, res[0])
		}
	}
}

// TestPooledBufferPatternIntegrity drives many exchange rounds whose
// payloads change every round, through heavy buffer recycling, and
// checks each received ghost against the value its neighbour packed —
// proof that no buffer is recycled while its contents are still
// needed.  Run under -race (make race) this also exercises the
// ownership-transfer discipline across the Par runtime's goroutines.
func TestPooledBufferPatternIntegrity(t *testing.T) {
	const p = 4
	const rounds = 60
	slabs := grid.SlabDecompose3(16, 6, 5, p, grid.AxisX)
	for _, mode := range bothModes {
		res, err := Run(p, mode, DefaultOptions(), func(c *Comm) int {
			r := c.Rank()
			sl := slabs[r]
			a := sl.NewLocal3(1)
			b := sl.NewLocal3(1)
			bad := 0
			for n := 0; n < rounds; n++ {
				// Distinct per-rank, per-round, per-grid payloads.
				fa := float64(1000*r + n)
				fb := float64(1000*r+n) + 0.5
				a.Fill(fa)
				b.Fill(fb)
				sendUp(c, grid.AxisX, a, b)
				sendDown(c, grid.AxisX, a, b)
				c.ExchangeGhostPlanesMulti(grid.AxisX, a, b)
				if r > 0 {
					want := float64(1000*(r-1) + n)
					if a.At(-1, 0, 0) != want || b.At(-1, 0, 0) != want+0.5 {
						bad++
					}
				}
				if r < p-1 {
					want := float64(1000*(r+1) + n)
					if a.At(a.NX(), 0, 0) != want || b.At(b.NX(), 0, 0) != want+0.5 {
						bad++
					}
				}
				// A reduction interleaved with the exchanges recycles
				// collective payloads through the same arena.
				sum := c.AllReduce(float64(r), OpSum)
				if sum != float64(p*(p-1)/2) {
					bad++
				}
			}
			return bad
		})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		for r, bad := range res {
			if bad != 0 {
				t.Fatalf("%v rank %d: %d corrupted ghost/reduction values", mode, r, bad)
			}
		}
	}
}
