package grid

import "fmt"

// Axis-generic plane access for 3-D grids.  The mesh archetype's slab
// decomposition can split a grid along any axis; these helpers pack and
// unpack the boundary plane perpendicular to a given axis, so the
// communication library does not need per-axis copies of its exchange
// logic.

// PlaneSize returns the number of interior points in a plane
// perpendicular to the axis.
func (g *G3) PlaneSize(axis Axis) int {
	switch axis {
	case AxisX:
		return g.ye.N * g.ze.N
	case AxisY:
		return g.xe.N * g.ze.N
	case AxisZ:
		return g.xe.N * g.ye.N
	}
	panic(fmt.Sprintf("grid: bad axis %v", axis))
}

// AxisN returns the interior extent along the axis.
func (g *G3) AxisN(axis Axis) int {
	switch axis {
	case AxisX:
		return g.xe.N
	case AxisY:
		return g.ye.N
	case AxisZ:
		return g.ze.N
	}
	panic(fmt.Sprintf("grid: bad axis %v", axis))
}

// AxisGhost returns the ghost width along the axis.
func (g *G3) AxisGhost(axis Axis) int {
	switch axis {
	case AxisX:
		return g.xe.Ghost
	case AxisY:
		return g.ye.Ghost
	case AxisZ:
		return g.ze.Ghost
	}
	panic(fmt.Sprintf("grid: bad axis %v", axis))
}

// PackPlane serialises the plane at logical index idx along the axis
// (which may lie in the ghost region) into buf, allocating when buf is
// nil.  Iteration order is the storage order of the two remaining axes.
func (g *G3) PackPlane(axis Axis, idx int, buf []float64) []float64 {
	n := g.PlaneSize(axis)
	if buf == nil {
		buf = make([]float64, n)
	}
	if len(buf) != n {
		panic(fmt.Sprintf("grid: PackPlane buffer length %d, want %d", len(buf), n))
	}
	switch axis {
	case AxisX:
		return g.packPlaneX(idx, buf)
	case AxisY:
		off := 0
		for i := 0; i < g.xe.N; i++ {
			base := g.Index(i, idx, 0)
			copy(buf[off:off+g.ze.N], g.data[base:base+g.ze.N])
			off += g.ze.N
		}
	case AxisZ:
		off := 0
		for i := 0; i < g.xe.N; i++ {
			for j := 0; j < g.ye.N; j++ {
				buf[off] = g.data[g.Index(i, j, idx)]
				off++
			}
		}
	}
	return buf
}

// UnpackPlane deserialises buf (length PlaneSize(axis)) into the plane
// at logical index idx along the axis, which may be a ghost plane.
func (g *G3) UnpackPlane(axis Axis, idx int, buf []float64) {
	n := g.PlaneSize(axis)
	if len(buf) != n {
		panic(fmt.Sprintf("grid: UnpackPlane buffer length %d, want %d", len(buf), n))
	}
	switch axis {
	case AxisX:
		g.unpackPlaneX(idx, buf)
	case AxisY:
		off := 0
		for i := 0; i < g.xe.N; i++ {
			base := g.Index(i, idx, 0)
			copy(g.data[base:base+g.ze.N], buf[off:off+g.ze.N])
			off += g.ze.N
		}
	case AxisZ:
		off := 0
		for i := 0; i < g.xe.N; i++ {
			for j := 0; j < g.ye.N; j++ {
				g.data[g.Index(i, j, idx)] = buf[off]
				off++
			}
		}
	}
}
