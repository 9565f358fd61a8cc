package fdtd

import (
	"fmt"
	"time"

	"repro/internal/grid"
)

// KernelVariant selects which update-kernel implementation a roofline
// measurement drives.
type KernelVariant int

// Kernel variants.
const (
	// KernelPencil is the hot path: the fused row-view kernels
	// (updateERange/updateHRange) over the packed row primitive yeeRowAt.
	KernelPencil KernelVariant = iota
	// KernelReference is the retained per-cell At/Set specification
	// (updateERangeRef/updateHRangeRef).  It evaluates
	// Spec.Coefficients at every cell component, so its rate is the
	// cost of the specification, not a kernel baseline.
	KernelReference
)

func (v KernelVariant) String() string {
	switch v {
	case KernelPencil:
		return "pencil"
	case KernelReference:
		return "ref"
	}
	return "KernelVariant(?)"
}

// kernel is one half-step update (E or H) over the window of local
// pencil columns [li0, li1) x [lj0, lj1); it returns the number of
// component updates performed.
type kernel func(f *Fields, li0, li1, lj0, lj1 int) int

// kernels returns the variant's E and H update kernels.
func (v KernelVariant) kernels() (updE, updH kernel) {
	if v == KernelReference {
		return updateERangeRef, updateHRangeRef
	}
	return updateERange, updateHRange
}

// KernelBytesPerCell is the memory-traffic model of one full (E+H)
// Yee step, in bytes per cell: each sweep streams nine float64 field
// grids per cell — three components read+written and three read —
// under the roofline convention that within a sweep each grid crosses
// the memory bus once (stencil-neighbour reuse is cache-resident).  The
// update coefficients add nothing: they are a few interned table rows
// (coefTable) shared by every pencil column, resident in L1.
// 2 sweeps x 9 accesses x 8 bytes.
const KernelBytesPerCell = 2 * 9 * 8

// KernelRate is one roofline measurement: the achieved full-step
// update rate of one kernel variant at one tile-worker count.
type KernelRate struct {
	Variant     KernelVariant
	Body        string // row body the pencil kernels ran: "generic" or "avx2"; empty for the reference
	Workers     int
	Steps       int     // full E+H steps timed
	Seconds     float64 // wall clock for those steps
	CellsPerSec float64 // spec.Cells() * Steps / Seconds
}

func (r KernelRate) String() string {
	name := r.Variant.String()
	if r.Body != "" {
		name += "/" + r.Body
	}
	return fmt.Sprintf("%-14s W=%d: %8.1f Mcells/s", name, r.Workers, r.CellsPerSec/1e6)
}

// MeasureKernelRate times repeated full-grid E+H sweeps of the given
// kernel variant over a single block covering the whole domain,
// fanning pencil-column windows across workers tile workers exactly as
// the tiled stepper does, until at least minTime of wall clock has
// accumulated.  The solve structure (source injection each step, full
// window partition) matches the production stepper, so the rate is the
// kernel ceiling of a real run, not a synthetic loop.
func MeasureKernelRate(spec Spec, variant KernelVariant, workers int, minTime time.Duration) KernelRate {
	xr := grid.Range{Lo: 0, Hi: spec.NX}
	yr := grid.Range{Lo: 0, Hi: spec.NY}
	f := newFields(spec, xr, yr, internCoefficients(spec, xr, yr))
	updE, updH := variant.kernels()
	tp := newTilePool(workers)
	defer tp.close()
	nxl, nyl := xr.Len(), yr.Len()
	step := func(n int) {
		addSource(f.Ez, spec, n, xr, yr)
		tp.run(0, nxl, func(a, b int) int { return updE(f, a, b, 0, nyl) })
		tp.run(0, nxl, func(a, b int) int { return updH(f, a, b, 0, nyl) })
	}
	step(0) // warm: faults pages, fills caches, starts workers
	steps := 0
	t0 := time.Now()
	for time.Since(t0) < minTime {
		step(steps + 1)
		steps++
	}
	secs := time.Since(t0).Seconds()
	body := ""
	if variant == KernelPencil {
		body = activeRow.String()
	}
	return KernelRate{
		Variant:     variant,
		Body:        body,
		Workers:     workers,
		Steps:       steps,
		Seconds:     secs,
		CellsPerSec: float64(spec.Cells()) * float64(steps) / secs,
	}
}
