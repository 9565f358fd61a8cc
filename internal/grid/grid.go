// Package grid provides the dense float64 grid G3 with optional ghost
// (shadow) boundaries, plus the block decompositions used to distribute
// grids among processes.
//
// Grids are the data substrate of the mesh archetype described in the
// paper: "the overall computation is based on N-dimensional grids (where
// N is 1, 2, or 3)".  There is one grid type: a 2-D grid is a G3 one
// cell deep in z (and a 1-D grid one cell deep in y and z), so every
// dimension shares one exchange, reduction and I/O library.  A grid
// owns a contiguous backing slice; interior points are addressed with
// zero-based logical coordinates, and ghost cells (if any) sit at
// logical coordinates -1..-ghost and n..n+ghost-1 along each axis.
//
// Storage is row-major, z fastest within y within x, so that the
// innermost FDTD loops walk memory with stride 1.
package grid

import "fmt"

// Extent describes one axis of a grid: the number of interior points and
// the ghost width on each side.
type Extent struct {
	N     int // interior points
	Ghost int // ghost cells on each side
}

// total returns interior plus ghost storage along the axis.
func (e Extent) total() int { return e.N + 2*e.Ghost }

func checkExtent(e Extent, axis string) {
	if e.N <= 0 {
		panic(fmt.Sprintf("grid: extent %s must be positive, got %d", axis, e.N))
	}
	if e.Ghost < 0 {
		panic(fmt.Sprintf("grid: ghost width %s must be non-negative, got %d", axis, e.Ghost))
	}
}

// Range is a half-open interval [Lo, Hi) of global indices along one
// axis.  It identifies the local section of a distributed grid.
type Range struct {
	Lo, Hi int
}

// Len returns the number of indices in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// Contains reports whether the global index i falls inside the range.
func (r Range) Contains(i int) bool { return i >= r.Lo && i < r.Hi }

func (r Range) String() string { return fmt.Sprintf("[%d,%d)", r.Lo, r.Hi) }
