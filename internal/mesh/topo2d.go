package mesh

import "repro/internal/grid"

// Topo2D arranges P = PX*PY processes in a logical 2-D grid and
// distributes a global NX-by-NY data grid as a PX-by-PY array of
// contiguous blocks — the general form of the mesh archetype's
// "partitioning the data grid into regular contiguous subgrids".
// Process rank r sits at coordinates (r / PY, r % PY).
type Topo2D struct {
	NX, NY  int
	PX, PY  int
	XRanges []grid.Range
	YRanges []grid.Range
}

// NewTopo2D builds the topology; it panics if the grid cannot be
// decomposed (each process must own at least one row and column).
func NewTopo2D(nx, ny, px, py int) *Topo2D {
	return &Topo2D{
		NX: nx, NY: ny, PX: px, PY: py,
		XRanges: grid.Decompose(nx, px),
		YRanges: grid.Decompose(ny, py),
	}
}

// P returns the total process count.
func (t *Topo2D) P() int { return t.PX * t.PY }

// Coords returns the logical coordinates of a rank.
func (t *Topo2D) Coords(rank int) (rx, ry int) { return rank / t.PY, rank % t.PY }

// Rank returns the rank at logical coordinates (rx, ry), or -1 if the
// coordinates fall outside the process grid.
func (t *Topo2D) Rank(rx, ry int) int {
	if rx < 0 || rx >= t.PX || ry < 0 || ry >= t.PY {
		return -1
	}
	return rx*t.PY + ry
}

// Block returns the global index ranges owned by a rank.
func (t *Topo2D) Block(rank int) (xr, yr grid.Range) {
	rx, ry := t.Coords(rank)
	return t.XRanges[rx], t.YRanges[ry]
}

// Owner returns the rank owning global point (i, j).
func (t *Topo2D) Owner(i, j int) int {
	rx := grid.Owner(t.XRanges, i)
	ry := grid.Owner(t.YRanges, j)
	if rx < 0 || ry < 0 {
		return -1
	}
	return t.Rank(rx, ry)
}
