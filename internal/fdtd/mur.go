package fdtd

import "repro/internal/grid"

// BoundaryKind selects the outer-boundary treatment of the solver.
type BoundaryKind int

// Boundary treatments.
const (
	// BoundaryPEC leaves the tangential electric field on the grid
	// boundary at zero: a perfectly conducting box that reflects the
	// pulse back into the domain.
	BoundaryPEC BoundaryKind = iota
	// BoundaryMur1 applies the first-order Mur absorbing boundary
	// condition to the tangential electric field components on all six
	// faces, letting outgoing waves leave the domain — the boundary
	// treatment scattering codes such as the paper's (after Kunz &
	// Luebbers) require.
	BoundaryMur1
)

func (b BoundaryKind) String() string {
	switch b {
	case BoundaryPEC:
		return "pec"
	case BoundaryMur1:
		return "mur1"
	}
	return "BoundaryKind(?)"
}

// murState carries the previous-step electric field values the Mur
// update needs: for each absorbing face the local block owns, the
// boundary plane and its interior neighbour, for the two tangential
// components.
//
// The same implementation serves the sequential build (a single block
// covering the whole domain) and the distributed builds (each global
// face belongs to the blocks touching it; the z faces to every block),
// so the boundary arithmetic is operation-for-operation identical
// across builds — which keeps the near-field results bitwise
// comparable, Mur included.  No communication is required: first-order
// Mur reads only the boundary plane and the plane directly inside it,
// both owned by the process applying the update.
type murState struct {
	spec   Spec
	xr, yr grid.Range
	coef   float64 // (c dt - dx)/(c dt + dx) with c = dx = 1
	// x faces (owned by blocks touching them): [component][plane] with
	// component 0 = Ey, 1 = Ez and plane 0 = boundary, 1 = inner.
	x0, x1 [2][2][]float64
	// y faces: component 0 = Ex, 1 = Ez.
	y0, y1 [2][2][]float64
	// z faces: component 0 = Ex, 1 = Ey.
	z0, z1 [2][2][]float64
	// Per-step scratch for murPlane (current plane, updated plane),
	// sized for the largest face so apply allocates nothing per step.
	cur, out []float64
}

func newMurState(spec Spec, xr, yr grid.Range) *murState {
	m := &murState{
		spec: spec,
		xr:   xr, yr: yr,
		coef: (spec.DT - 1) / (spec.DT + 1),
	}
	alloc := func(dst *[2][2][]float64, planeSize int) {
		for c := 0; c < 2; c++ {
			for p := 0; p < 2; p++ {
				dst[c][p] = make([]float64, planeSize)
			}
		}
	}
	yz := yr.Len() * spec.NZ
	xz := xr.Len() * spec.NZ
	xy := xr.Len() * yr.Len()
	if xr.Lo == 0 {
		alloc(&m.x0, yz)
	}
	if xr.Hi == spec.NX {
		alloc(&m.x1, yz)
	}
	if yr.Lo == 0 {
		alloc(&m.y0, xz)
	}
	if yr.Hi == spec.NY {
		alloc(&m.y1, xz)
	}
	alloc(&m.z0, xy)
	alloc(&m.z1, xy)
	maxPlane := yz
	if xz > maxPlane {
		maxPlane = xz
	}
	if xy > maxPlane {
		maxPlane = xy
	}
	m.cur = make([]float64, maxPlane)
	m.out = make([]float64, maxPlane)
	return m
}

// snapshot records the current (pre-update) E values at every plane the
// next apply call will need.
func (m *murState) snapshot(ey, ez, ex *grid.G3) {
	nxl, nyl, nz := m.xr.Len(), m.yr.Len(), m.spec.NZ
	if m.xr.Lo == 0 {
		ey.PackPlane(grid.AxisX, 0, m.x0[0][0])
		ey.PackPlane(grid.AxisX, 1, m.x0[0][1])
		ez.PackPlane(grid.AxisX, 0, m.x0[1][0])
		ez.PackPlane(grid.AxisX, 1, m.x0[1][1])
	}
	if m.xr.Hi == m.spec.NX {
		ey.PackPlane(grid.AxisX, nxl-1, m.x1[0][0])
		ey.PackPlane(grid.AxisX, nxl-2, m.x1[0][1])
		ez.PackPlane(grid.AxisX, nxl-1, m.x1[1][0])
		ez.PackPlane(grid.AxisX, nxl-2, m.x1[1][1])
	}
	if m.yr.Lo == 0 {
		ex.PackPlane(grid.AxisY, 0, m.y0[0][0])
		ex.PackPlane(grid.AxisY, 1, m.y0[0][1])
		ez.PackPlane(grid.AxisY, 0, m.y0[1][0])
		ez.PackPlane(grid.AxisY, 1, m.y0[1][1])
	}
	if m.yr.Hi == m.spec.NY {
		ex.PackPlane(grid.AxisY, nyl-1, m.y1[0][0])
		ex.PackPlane(grid.AxisY, nyl-2, m.y1[0][1])
		ez.PackPlane(grid.AxisY, nyl-1, m.y1[1][0])
		ez.PackPlane(grid.AxisY, nyl-2, m.y1[1][1])
	}
	ex.PackPlane(grid.AxisZ, 0, m.z0[0][0])
	ex.PackPlane(grid.AxisZ, 1, m.z0[0][1])
	ey.PackPlane(grid.AxisZ, 0, m.z0[1][0])
	ey.PackPlane(grid.AxisZ, 1, m.z0[1][1])
	ex.PackPlane(grid.AxisZ, nz-1, m.z1[0][0])
	ex.PackPlane(grid.AxisZ, nz-2, m.z1[0][1])
	ey.PackPlane(grid.AxisZ, nz-1, m.z1[1][0])
	ey.PackPlane(grid.AxisZ, nz-2, m.z1[1][1])
}

// murPlane applies the first-order Mur update to one boundary plane of
// one component:
//
//	E_b^{n+1} = E_in^n + coef * (E_in^{n+1} - E_b^n)
//
// where b is the boundary plane and in its interior neighbour, and the
// ^n values come from the snapshot.  It returns the number of updates.
// Both plane buffers come from the murState scratch, so the per-step
// boundary update allocates nothing; the inner loop re-slices the
// snapshot rows to the output length so the bounds checks hoist (the
// same row-view idiom as the field kernels).  The product sits in an
// explicit float64 conversion, as in yeeRowGeneric, so no build fuses
// the update into an FMA.
func (m *murState) murPlane(g *grid.G3, axis grid.Axis, boundary, inner int, oldB, oldIn []float64) int {
	cur := g.PackPlane(axis, inner, m.cur[:len(oldB)])
	out := m.out[:len(cur)]
	oldBS := oldB[:len(out)]
	oldInS := oldIn[:len(out)]
	curS := cur[:len(out)]
	for i := range out {
		out[i] = oldInS[i] + float64(m.coef*(curS[i]-oldBS[i]))
	}
	g.UnpackPlane(axis, boundary, out)
	return len(out)
}

// apply performs the Mur boundary update after the interior E update,
// using the values captured by the preceding snapshot.  It returns the
// number of component updates (work units).
func (m *murState) apply(ey, ez, ex *grid.G3) int {
	nxl, nyl, nz := m.xr.Len(), m.yr.Len(), m.spec.NZ
	work := 0
	if m.xr.Lo == 0 {
		work += m.murPlane(ey, grid.AxisX, 0, 1, m.x0[0][0], m.x0[0][1])
		work += m.murPlane(ez, grid.AxisX, 0, 1, m.x0[1][0], m.x0[1][1])
	}
	if m.xr.Hi == m.spec.NX {
		work += m.murPlane(ey, grid.AxisX, nxl-1, nxl-2, m.x1[0][0], m.x1[0][1])
		work += m.murPlane(ez, grid.AxisX, nxl-1, nxl-2, m.x1[1][0], m.x1[1][1])
	}
	if m.yr.Lo == 0 {
		work += m.murPlane(ex, grid.AxisY, 0, 1, m.y0[0][0], m.y0[0][1])
		work += m.murPlane(ez, grid.AxisY, 0, 1, m.y0[1][0], m.y0[1][1])
	}
	if m.yr.Hi == m.spec.NY {
		work += m.murPlane(ex, grid.AxisY, nyl-1, nyl-2, m.y1[0][0], m.y1[0][1])
		work += m.murPlane(ez, grid.AxisY, nyl-1, nyl-2, m.y1[1][0], m.y1[1][1])
	}
	work += m.murPlane(ex, grid.AxisZ, 0, 1, m.z0[0][0], m.z0[0][1])
	work += m.murPlane(ey, grid.AxisZ, 0, 1, m.z0[1][0], m.z0[1][1])
	work += m.murPlane(ex, grid.AxisZ, nz-1, nz-2, m.z1[0][0], m.z1[0][1])
	work += m.murPlane(ey, grid.AxisZ, nz-1, nz-2, m.z1[1][0], m.z1[1][1])
	return work
}
