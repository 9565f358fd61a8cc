package fdtd

import (
	"fmt"
	"unsafe"

	"repro/internal/grid"
)

// Fields holds one process's local section of the six Yee field
// components and its interned update coefficients.  The local section
// is the block XR x YR of the global grid (the z axis is never split);
// field grids carry a one-plane ghost boundary along x and y.  The
// coefficients are not grids: because materials are axis-aligned boxes,
// Coef maps each local pencil column to one of a few shared row sets
// (coefTable).  An x-slab (a px×1 block) has YR == [0, NY).
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

// rowBases is what the packed kernels take from a window proof: the
// start of each field grid's backing store, and the strides and row
// length the six grids share.
type rowBases struct {
	ex, ey, ez, hx, hy, hz *float64
	sx, sy, nz             int
}

// at returns the address off elements past p.
func at(p *float64, off int) *float64 {
	return (*float64)(unsafe.Add(unsafe.Pointer(p), off*8))
}

// proveWindow checks, once per window, everything the packed row calls
// of updateERange and updateHRange rely on, and panics before anything
// is written if any of it fails:
//
//   - the six field grids share one geometry (extents, ghost widths and
//     so strides), so one offset addresses the same cell in each;
//   - the rows [li0-1, li1] x [lj0-1, lj1] — the window and the
//     neighbour rows its stencils read one column below (E) or above
//     (H) — lie inside the ghosted extent and inside every backing
//     store;
//   - the coefficient table maps every local column, and each of its
//     row sets holds rows of length NZ.
//
// The window must be non-empty.  After the proof no row call of the
// window can address memory outside the grids, which is what lets the
// kernels hand the row body bare pointers and a length.
func proveWindow(f *Fields, li0, li1, lj0, lj1 int) rowBases {
	g := f.Ex
	nx, ny, nz := g.NX(), g.NY(), g.NZ()
	for _, h := range [...]*grid.G3{f.Ey, f.Ez, f.Hx, f.Hy, f.Hz} {
		if h.NX() != nx || h.NY() != ny || h.NZ() != nz || h.GhostX() != g.GhostX() ||
			h.GhostY() != g.GhostY() || h.GhostZ() != g.GhostZ() || len(h.Data()) != len(g.Data()) {
			panic("fdtd: the six field grids do not share one geometry")
		}
	}
	if li0-1 < -g.GhostX() || li1 >= nx+g.GhostX() || lj0-1 < -g.GhostY() || lj1 >= ny+g.GhostY() ||
		g.Index(li0-1, lj0-1, 0) < 0 || g.Index(li1, lj1, 0)+nz > len(g.Data()) {
		panic(fmt.Sprintf("fdtd: window [%d,%d)x[%d,%d) reaches past the %dx%d local grid", li0, li1, lj0, lj1, nx, ny))
	}
	t := f.Coef
	if t.ny != ny || len(t.class) != nx*ny {
		panic(fmt.Sprintf("fdtd: coefficient table of %d columns (%d along y) does not map the %dx%d local grid",
			len(t.class), t.ny, nx, ny))
	}
	for c := range t.sets {
		r := &t.sets[c]
		if len(r.ca) != nz || len(r.cb) != nz || len(r.da) != nz || len(r.db) != nz {
			panic(fmt.Sprintf("fdtd: coefficient class %d does not hold rows of length NZ = %d", c, nz))
		}
	}
	return rowBases{
		ex: unsafe.SliceData(f.Ex.Data()), ey: unsafe.SliceData(f.Ey.Data()), ez: unsafe.SliceData(f.Ez.Data()),
		hx: unsafe.SliceData(f.Hx.Data()), hy: unsafe.SliceData(f.Hy.Data()), hz: unsafe.SliceData(f.Hz.Data()),
		sx: g.StrideX(), sy: g.StrideY(), nz: nz,
	}
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
// [0, NX) x [0, NY) (proveWindow panics otherwise); empty windows are
// fine and update nothing.
//
// The E stencils read H one pencil below along x (li-1) and y (lj-1)
// and never write H, so windows that partition the local section can
// run concurrently: their writes are disjoint and their reads are of
// fields no window writes.
//
// Each component is one packed row call, yeeRowAt, over contiguous
// z-rows (of the fields, and of the column's interned rows of the
// coefficient table): every component update has the row primitive's
// shape out = a*out + b*((p-q) - (r-s)), and the backward z stencil
// (H at k-1) is the row start shifted by one, so Ex at k >= 1 is the
// call on ex+1, ..., hy+1, hy with n = NZ-1.  No lane of a row depends
// on another (E reads only H), which is what lets the row run packed.
// The window is proven once (proveWindow), so a row costs one base
// offset per column and one call with seven pointers and a length.
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
	if li0 >= li1 || lj0 >= lj1 {
		return 0
	}
	w := proveWindow(f, li0, li1, lj0, lj1)
	sx, sy, n := w.sx, w.sy, w.nz
	t := f.Coef
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
		o := f.Ex.Index(li, lj0, 0)
		for dj, c := range t.class[li*t.ny+lj0 : li*t.ny+lj1] {
			doJ := lj0+dj >= ljStart // Ex, Ez skip global j == 0
			if doI || doJ {
				cr := &t.sets[c]
				ca, cb := unsafe.SliceData(cr.ca), unsafe.SliceData(cr.cb)
				// Ex: all i; global j >= 1; k >= 1.  lj == 0 reads the
				// lower y ghost of Hz.
				if doJ {
					yeeRowAt(at(w.ex, o+1), at(ca, 1), at(cb, 1),
						at(w.hz, o+1), at(w.hz, o-sy+1), at(w.hy, o+1), at(w.hy, o), n-1)
					count += n - 1
				}
				// Ey: global i >= 1; all j; k >= 1.  li == 0 reads the
				// lower x ghost of Hz.
				if doI {
					yeeRowAt(at(w.ey, o+1), at(ca, 1), at(cb, 1),
						at(w.hx, o+1), at(w.hx, o), at(w.hz, o+1), at(w.hz, o-sx+1), n-1)
					count += n - 1
				}
				// Ez: global i >= 1; global j >= 1; all k.
				if doI && doJ {
					yeeRowAt(at(w.ez, o), ca, cb,
						at(w.hy, o), at(w.hy, o-sx), at(w.hx, o), at(w.hx, o-sy), n)
					count += n
				}
			}
			o += sy
		}
	}
	return count
}

// updateHRange advances the magnetic field one step over local pencil
// columns [li0, li1) x [lj0, lj1), with the same windowing contract as
// updateERange.  The H stencils read E one pencil above along x (li+1)
// and y (lj+1) and never write E, so disjoint windows are race-free.
func updateHRange(f *Fields, li0, li1, lj0, lj1 int) int {
	if li0 >= li1 || lj0 >= lj1 {
		return 0
	}
	w := proveWindow(f, li0, li1, lj0, lj1)
	sx, sy, n := w.sx, w.sy, w.nz
	t := f.Coef
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
	// The forward z stencils (E at k+1) are the row starts shifted by
	// one: the written row has length nz-1, and ex+1 addresses ex[k+1].
	for li := li0; li < li1; li++ {
		doI := li < liEnd // Hy, Hz stop short of the global top i
		o := f.Ex.Index(li, lj0, 0)
		for dj, c := range t.class[li*t.ny+lj0 : li*t.ny+lj1] {
			doJ := lj0+dj < ljEnd // Hx, Hz stop short of the global top j
			if doI || doJ {
				cr := &t.sets[c]
				da, db := unsafe.SliceData(cr.da), unsafe.SliceData(cr.db)
				// Hx: all i; global j < ny-1; k < nz-1.  lj == nyl-1
				// reads the upper y ghost of Ez.
				if doJ {
					yeeRowAt(at(w.hx, o), da, db,
						at(w.ey, o+1), at(w.ey, o), at(w.ez, o+sy), at(w.ez, o), n-1)
					count += n - 1
				}
				// Hy: global i < nx-1; all j; k < nz-1.  li == nxl-1
				// reads the upper x ghost of Ez.
				if doI {
					yeeRowAt(at(w.hy, o), da, db,
						at(w.ez, o+sx), at(w.ez, o), at(w.ex, o+1), at(w.ex, o), n-1)
					count += n - 1
				}
				// Hz: global i < nx-1; global j < ny-1; all k.
				if doI && doJ {
					yeeRowAt(at(w.hz, o), da, db,
						at(w.ex, o+sy), at(w.ex, o), at(w.ey, o+sx), at(w.ey, o), n)
					count += n
				}
			}
			o += sy
		}
	}
	return count
}
