package fdtd

import (
	"fmt"

	"repro/internal/grid"
	"repro/internal/mesh"
)

// block is one rank's share of the domain: the (x, y) index ranges it
// owns (z is never split) and its neighbour ranks along each axis, -1
// where the domain ends.  exchangeY is false when the decomposition
// never splits y, so the stepper skips the y exchange phases outright
// instead of running them empty.
type block struct {
	xr, yr                 grid.Range
	xUp, xDown, yUp, yDown int
	exchangeY              bool
}

// decomposition is how one run divides the domain among its ranks: the
// archetype's block distribution of the x and y axes over a px-by-py
// process grid (z stays whole), redistributed between the host (rank 0)
// and the blocks a block at a time (mesh.Scatter3DBlocks /
// Gather3DBlocks).  The sequential program is the 1x1 case (one block
// owning everything: no neighbours, no messages) and the x-slabs of
// RunArchetype the px x 1 case; the per-rank body is the same.
//
// The one-plane ghost depth the stepper exchanges is the dependence
// distance of the Yee stencil (every read is at most one cell away
// along x or y), not a property of the decomposition.
type decomposition struct {
	topo *mesh.Topo2D
}

// block returns rank's block.  Every rank exchanges along y exactly
// when the process grid splits y, so the exchange phases stay
// bulk-synchronous and a px x 1 run has no y phases at all.
func (d decomposition) block(rank int) block {
	t := d.topo
	xr, yr := t.Block(rank)
	rx, ry := t.Coords(rank)
	return block{
		xr: xr, yr: yr,
		xUp: t.Rank(rx+1, ry), xDown: t.Rank(rx-1, ry),
		yUp: t.Rank(rx, ry+1), yDown: t.Rank(rx, ry-1),
		exchangeY: t.PY > 1,
	}
}

// scatter distributes a global nx x ny x nz grid held by the host into
// ghost-free local sections (nz is 1 for a plane of per-column values);
// gather is its inverse for full-depth grids, returning the assembled
// grid on the host and nil elsewhere.
func (d decomposition) scatter(c *mesh.Comm, global *grid.G3, nz int) *grid.G3 {
	return c.Scatter3DBlocks(global, d.topo, nz, 0, 0, 0)
}

func (d decomposition) gather(c *mesh.Comm, local *grid.G3) *grid.G3 {
	return c.Gather3DBlocks(local, d.topo, 0)
}

// decompose is the single admission point of every build: it validates
// the spec and the px-by-py process grid and returns the decomposition.
func decompose(spec Spec, px, py int) (decomposition, error) {
	if err := spec.Validate(); err != nil {
		return decomposition{}, err
	}
	if px <= 0 || px > spec.NX || py <= 0 || py > spec.NY {
		return decomposition{}, fmt.Errorf("fdtd: cannot distribute %dx%d planes over %dx%d processes",
			spec.NX, spec.NY, px, py)
	}
	t := mesh.NewTopo2D(spec.NX, spec.NY, px, py)
	if spec.Boundary == BoundaryMur1 {
		// The Mur update reads the plane directly inside each face it
		// owns, so the edge blocks need >= 2 planes along each axis.
		if min(t.XRanges[0].Len(), t.XRanges[px-1].Len()) < 2 {
			return decomposition{}, fmt.Errorf("fdtd: Mur boundary requires x-edge blocks to own >= 2 planes (nx=%d, px=%d)", spec.NX, px)
		}
		if min(t.YRanges[0].Len(), t.YRanges[py-1].Len()) < 2 {
			return decomposition{}, fmt.Errorf("fdtd: Mur boundary requires y-edge blocks to own >= 2 planes (ny=%d, py=%d)", spec.NY, py)
		}
	}
	return decomposition{topo: t}, nil
}

// ValidateForP reports the first problem with running spec distributed
// over p processes: an invalid spec, too many processes for the grid,
// or a boundary treatment the edge blocks cannot support.  It is the
// admission-time check of the job service — the exact predicate the
// workers apply, so an admitted job cannot fail decomposition later.
func ValidateForP(spec Spec, p int) error {
	_, err := decompose(spec, p, 1)
	return err
}
