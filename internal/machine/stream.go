package machine

import (
	"fmt"
	"time"
)

// StreamResult is the outcome of a memory-bandwidth probe: the best
// (fastest) pass over the arrays, reported as achieved bytes per
// second.  Following STREAM convention the triad moves 3 words per
// element (two reads and one write; write-allocate traffic is not
// counted), so BytesPerSec = 24 * Elems / BestSeconds for float64
// arrays.
type StreamResult struct {
	Elems       int     // elements per array
	Iters       int     // timed passes
	BestSeconds float64 // fastest single pass
	BytesPerSec float64 // 24 * Elems / BestSeconds
}

func (r StreamResult) String() string {
	return fmt.Sprintf("stream triad: %.2f GB/s (%d x 3 arrays, best of %d)",
		r.BytesPerSec/1e9, r.Elems, r.Iters)
}

// StreamTriad measures sustained memory bandwidth with the STREAM
// triad kernel a[i] = b[i] + s*c[i].  The three arrays should be far
// larger than the last-level cache for the number to mean main-memory
// bandwidth (the roofline probe uses 8M elements = 192 MB total); the
// best of iters passes is reported, the standard STREAM practice that
// discards passes perturbed by the OS.  This measured bound is what
// the roofline report compares kernel cells/sec against: a kernel at
// the bound is memory-bound, one far below it is latency- or
// bounds-check-bound.
func StreamTriad(elems, iters int) StreamResult {
	if elems < 1 {
		elems = 1
	}
	if iters < 1 {
		iters = 1
	}
	a := make([]float64, elems)
	b := make([]float64, elems)
	c := make([]float64, elems)
	for i := range b {
		b[i] = float64(i % 64)
		c[i] = float64((i + 7) % 64)
	}
	const s = 3.0
	// One untimed warm pass faults the pages in.
	triad(a, b, c, s)
	best := float64(0)
	for it := 0; it < iters; it++ {
		t0 := time.Now()
		triad(a, b, c, s)
		dt := time.Since(t0).Seconds()
		if best == 0 || dt < best {
			best = dt
		}
	}
	return StreamResult{
		Elems:       elems,
		Iters:       iters,
		BestSeconds: best,
		BytesPerSec: 24 * float64(elems) / best,
	}
}

// triad is the measured kernel, kept free of bounds checks by the same
// re-slice hoist the FDTD kernels use so the probe measures memory,
// not checks.  The product sits in an explicit float64 conversion so
// no build fuses it into an FMA.
func triad(a, b, c []float64, s float64) {
	b = b[:len(a)]
	c = c[:len(a)]
	for i := range a {
		a[i] = b[i] + float64(s*c[i])
	}
}
