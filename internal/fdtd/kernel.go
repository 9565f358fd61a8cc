package fdtd

import (
	"repro/internal/grid"
)

// Fields holds one process's local section of the six Yee field
// components and its interned update coefficients.  The local section
// is the block XR x YR of the global grid (the z axis is never split);
// field grids carry a one-plane ghost boundary along x and y.  The
// coefficients are not grids: because materials are axis-aligned boxes,
// Coef maps each local pencil column to one of a few shared row sets
// (coefTable).  A 1-D slab decomposition is the special case
// YR == [0, NY).
type Fields struct {
	Spec       Spec
	XR, YR     grid.Range
	Ex, Ey, Ez *grid.G3
	Hx, Hy, Hz *grid.G3
	Coef       *coefTable
}

// newFields allocates zeroed local fields for a block with coefficient
// table coef.
func newFields(spec Spec, xr, yr grid.Range, coef *coefTable) *Fields {
	mk := func() *grid.G3 {
		return grid.New3G(xr.Len(), yr.Len(), spec.NZ, 1, 1, 0)
	}
	return &Fields{
		Spec: spec, XR: xr, YR: yr,
		Ex: mk(), Ey: mk(), Ez: mk(),
		Hx: mk(), Hy: mk(), Hz: mk(),
		Coef: coef,
	}
}

// addSource injects the step-n source value into the local Ez section.
// The caller must own the source cell (point source) or a piece of the
// source plane (plane source); source cells outside the local block are
// skipped.  The same function serves the sequential and distributed
// builds, keeping the injected values bitwise identical.
func addSource(ez *grid.G3, spec Spec, n int, xr, yr grid.Range) {
	src := spec.Source
	v := src.Pulse(n)
	switch src.Kind {
	case SourcePlaneX:
		if !xr.Contains(src.I) {
			return
		}
		// The full y-z plane, over the cells the Ez update touches and
		// this block owns.
		jStart := yr.Lo
		if jStart < 1 {
			jStart = 1
		}
		li := src.I - xr.Lo
		for j := jStart; j < yr.Hi; j++ {
			row := ez.Row(li, j-yr.Lo)
			for k := range row {
				row[k] += v
			}
		}
	default:
		if xr.Contains(src.I) && yr.Contains(src.J) {
			ez.Add(src.I-xr.Lo, src.J-yr.Lo, src.K, v)
		}
	}
}

func imax(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func imin(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// updateERange advances the electric field one step over local pencil
// columns [li0, li1) x [lj0, lj1) and returns the number of component
// updates performed.  Loop bounds are derived from global indices, so
// boundary processes automatically perform the PEC boundary handling
// ("calculations that must be done differently in different grid
// processes").
//
// The sequential program runs this same kernel on the one block that
// covers the whole domain, so the simulated-parallel results are
// bitwise identical to the sequential ones by construction.
//
// Each component's own loop bounds (the PEC clamps) are intersected
// with the window, so any disjoint cover of the local section performs
// exactly the cell updates of one full-section call, each with the
// identical expression — the property the tiled and overlapped drivers
// rely on for bitwise reproducibility.  The window must not exceed
// [0, NX) x [0, NY); empty windows are fine and update nothing.
//
// The E stencils read H one pencil below along x (li-1) and y (lj-1)
// and never write H, so windows that partition the local section can
// run concurrently: their writes are disjoint and their reads are of
// fields no window writes.
//
// Each component is one yeeRow call over contiguous z-rows
// (grid.G3.Row views of the fields, the column's interned rows of the
// coefficient table): every component update has the row primitive's
// shape out = a*out + b*((p-q) - (r-s)), and the backward z stencil
// (H at k-1) is the row view shifted by one, so Ex at k >= 1 is
// yeeRow(ex[1:], ..., hy[1:], hy[:n-1]).  No lane of a row depends on
// another (E reads only H), which is what lets the row run packed.
//
// The three component sweeps are fused into one (li, lj) traversal:
// the coefficient rows (and the shared field rows) are fetched once
// per pencil column instead of once per component.  The coefficient
// rows are a few shared table rows, so they stay in L1 and the sweep
// streams only the field grids.  Fusing is invisible in
// the results because no E component reads another E component — the
// three updates at one column commute — so only independent operations
// are permuted (Theorem 1 again).  The per-cell expressions are
// unchanged — see updateERangeRef for the retained per-cell reference
// kernels the property tests pit these against.
func updateERange(f *Fields, li0, li1, lj0, lj1 int) int {
	count := 0
	// Components skip the global index 0 along the axes their curl
	// stencil reaches backwards on.
	liStart := 0
	if f.XR.Lo == 0 {
		liStart = 1
	}
	ljStart := 0
	if f.YR.Lo == 0 {
		ljStart = 1
	}
	for li := li0; li < li1; li++ {
		doI := li >= liStart // Ey, Ez skip global i == 0
		for lj := lj0; lj < lj1; lj++ {
			doJ := lj >= ljStart // Ex, Ez skip global j == 0
			if !doI && !doJ {
				continue
			}
			cr := f.Coef.rows(li, lj)
			caP, cbP := cr.ca, cr.cb
			hxP := f.Hx.Row(li, lj)
			hyP := f.Hy.Row(li, lj)
			hzP := f.Hz.Row(li, lj)
			n := len(caP)
			// Ex: all i; global j >= 1; k >= 1.
			if doJ {
				exP := f.Ex.Row(li, lj)
				hzJm := f.Hz.Row(li, lj-1) // lj == 0 reads the lower y ghost
				yeeRow(exP[1:], caP[1:], cbP[1:], hzP[1:], hzJm[1:], hyP[1:], hyP[:n-1])
				count += n - 1
			}
			// Ey: global i >= 1; all j; k >= 1.
			if doI {
				eyP := f.Ey.Row(li, lj)
				hzIm := f.Hz.Row(li-1, lj) // li == 0 reads the lower x ghost
				yeeRow(eyP[1:], caP[1:], cbP[1:], hxP[1:], hxP[:n-1], hzP[1:], hzIm[1:])
				count += n - 1
			}
			// Ez: global i >= 1; global j >= 1; all k.
			if doI && doJ {
				yeeRow(f.Ez.Row(li, lj), caP, cbP, hyP, f.Hy.Row(li-1, lj), hxP, f.Hx.Row(li, lj-1))
				count += n
			}
		}
	}
	return count
}

// updateHRange advances the magnetic field one step over local pencil
// columns [li0, li1) x [lj0, lj1), with the same windowing contract as
// updateERange.  The H stencils read E one pencil above along x (li+1)
// and y (lj+1) and never write E, so disjoint windows are race-free.
func updateHRange(f *Fields, li0, li1, lj0, lj1 int) int {
	nxl, nyl := f.XR.Len(), f.YR.Len()
	count := 0
	// Components stop one short of the global top along the axes their
	// curl stencil reaches forwards on.
	liEnd := nxl
	if f.XR.Hi == f.Spec.NX {
		liEnd = nxl - 1
	}
	ljEnd := nyl
	if f.YR.Hi == f.Spec.NY {
		ljEnd = nyl - 1
	}
	// One fused (li, lj) traversal, same argument as updateERange: no H
	// component reads another H component, so interleaving the three
	// updates per pencil column permutes independent operations only.
	// The forward z stencils (E at k+1) are the row views shifted by
	// one: the written sub-row has length nz-1, and ex[1:][k] is
	// ex[k+1].
	for li := li0; li < li1; li++ {
		doI := li < liEnd // Hy, Hz stop short of the global top i
		for lj := lj0; lj < lj1; lj++ {
			doJ := lj < ljEnd // Hx, Hz stop short of the global top j
			if !doI && !doJ {
				continue
			}
			cr := f.Coef.rows(li, lj)
			daP, dbP := cr.da, cr.db
			exP := f.Ex.Row(li, lj)
			eyP := f.Ey.Row(li, lj)
			ezP := f.Ez.Row(li, lj)
			n := len(daP)
			// Hx: all i; global j < ny-1; k < nz-1.
			if doJ {
				ezJp := f.Ez.Row(li, lj+1) // lj == nyl-1 reads the upper y ghost
				yeeRow(f.Hx.Row(li, lj)[:n-1], daP, dbP, eyP[1:], eyP, ezJp, ezP)
				count += n - 1
			}
			// Hy: global i < nx-1; all j; k < nz-1.
			if doI {
				ezIp := f.Ez.Row(li+1, lj) // li == nxl-1 reads the upper x ghost
				yeeRow(f.Hy.Row(li, lj)[:n-1], daP, dbP, ezIp, ezP, exP[1:], exP)
				count += n - 1
			}
			// Hz: global i < nx-1; global j < ny-1; all k.
			if doI && doJ {
				yeeRow(f.Hz.Row(li, lj), daP, dbP, f.Ex.Row(li, lj+1), exP, f.Ey.Row(li+1, lj), eyP)
				count += n
			}
		}
	}
	return count
}
