package grid

import "fmt"

// Decompose splits n grid points into p contiguous blocks as evenly as
// possible: the first n%p blocks get one extra point.  This is the
// "regular contiguous subgrids" distribution the mesh archetype
// prescribes.  It panics if p <= 0 or n < p (every process must own at
// least one point so that restriction (iii) on data-exchange operations
// can be satisfied).
func Decompose(n, p int) []Range {
	if p <= 0 {
		panic(fmt.Sprintf("grid: Decompose needs p > 0, got %d", p))
	}
	if n < p {
		panic(fmt.Sprintf("grid: cannot decompose %d points over %d processes", n, p))
	}
	base := n / p
	extra := n % p
	out := make([]Range, p)
	lo := 0
	for i := 0; i < p; i++ {
		sz := base
		if i < extra {
			sz++
		}
		out[i] = Range{Lo: lo, Hi: lo + sz}
		lo += sz
	}
	return out
}

// Owner returns the index of the block in ranges that contains the
// global index i, or -1 if none does.  ranges must be sorted and
// non-overlapping (as produced by Decompose).
func Owner(ranges []Range, i int) int {
	lo, hi := 0, len(ranges)
	for lo < hi {
		mid := (lo + hi) / 2
		r := ranges[mid]
		switch {
		case i < r.Lo:
			hi = mid
		case i >= r.Hi:
			lo = mid + 1
		default:
			return mid
		}
	}
	return -1
}

// Axis selects the split dimension of a slab decomposition.
type Axis int

// Axes of a 3-D grid.
const (
	AxisX Axis = iota
	AxisY
	AxisZ
)

func (a Axis) String() string {
	switch a {
	case AxisX:
		return "x"
	case AxisY:
		return "y"
	case AxisZ:
		return "z"
	}
	return fmt.Sprintf("Axis(%d)", int(a))
}

// Slab describes one process's local section of a 3-D grid split into
// contiguous slabs along a single axis.
type Slab struct {
	Axis  Axis
	Rank  int   // owning process
	World int   // number of processes
	R     Range // global index range along Axis
	// Full extents of the global grid.
	NX, NY, NZ int
}

// SlabDecompose3 splits an nx-by-ny-by-nz grid into p slabs along the
// given axis.
func SlabDecompose3(nx, ny, nz, p int, axis Axis) []Slab {
	var n int
	switch axis {
	case AxisX:
		n = nx
	case AxisY:
		n = ny
	case AxisZ:
		n = nz
	default:
		panic("grid: bad axis")
	}
	ranges := Decompose(n, p)
	out := make([]Slab, p)
	for i, r := range ranges {
		out[i] = Slab{Axis: axis, Rank: i, World: p, R: r, NX: nx, NY: ny, NZ: nz}
	}
	return out
}

// LocalNX returns the slab's local extent along x.
func (s Slab) LocalNX() int {
	if s.Axis == AxisX {
		return s.R.Len()
	}
	return s.NX
}

// LocalNY returns the slab's local extent along y.
func (s Slab) LocalNY() int {
	if s.Axis == AxisY {
		return s.R.Len()
	}
	return s.NY
}

// LocalNZ returns the slab's local extent along z.
func (s Slab) LocalNZ() int {
	if s.Axis == AxisZ {
		return s.R.Len()
	}
	return s.NZ
}

// ToGlobal converts a slab-local coordinate along the split axis to
// the global coordinate.
func (s Slab) ToGlobal(l int) int { return l + s.R.Lo }

// NewLocal3 allocates the local grid for the slab with ghost width g
// along the split axis only (other axes get no ghosts, matching the
// archetype's "surround each local section with a ghost boundary"
// along the distribution axis).
func (s Slab) NewLocal3(g int) *G3 {
	gx, gy, gz := 0, 0, 0
	switch s.Axis {
	case AxisX:
		gx = g
	case AxisY:
		gy = g
	case AxisZ:
		gz = g
	}
	return New3G(s.LocalNX(), s.LocalNY(), s.LocalNZ(), gx, gy, gz)
}
