package fdtd

import (
	"fmt"
	"slices"

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

// decomposition is how one run divides the domain among its ranks and
// how the host (rank 0) moves whole grids to and from the blocks.  It
// is the only thing that differs between the sequential program (one
// slab owning everything: no neighbours, no messages), the 1-D slab
// builds and the 2-D block build; the per-rank body is the same.
//
// The one-plane ghost depth the stepper exchanges is the dependence
// distance of the Yee stencil (every read is at most one cell away
// along x or y), not a property of any decomposition.
type decomposition interface {
	procs() int
	block(rank int) block
	// owner returns the rank owning global column (i, j).
	owner(i, j int) int
	// scatter distributes a global nx x ny x nz grid held by the host
	// into ghost-free local sections (nz is 1 for a plane of per-column
	// values); gather is its inverse for full-depth grids, returning the
	// assembled grid on the host and nil elsewhere.
	scatter(c *mesh.Comm, global *grid.G3, nz int) *grid.G3
	gather(c *mesh.Comm, local *grid.G3) *grid.G3
}

// slabs is the 1-D decomposition along x, redistributed plane by plane
// (mesh.ScatterX / GatherX).
type slabs []grid.Slab

func (s slabs) procs() int { return len(s) }

func (s slabs) block(rank int) block {
	b := block{
		xr: s[rank].R, yr: grid.Range{Lo: 0, Hi: s[rank].NY},
		xUp: -1, xDown: rank - 1, yUp: -1, yDown: -1,
	}
	if rank < len(s)-1 {
		b.xUp = rank + 1
	}
	return b
}

func (s slabs) owner(i, _ int) int {
	for _, sl := range s {
		if sl.R.Contains(i) {
			return sl.Rank
		}
	}
	panic(fmt.Sprintf("fdtd: no slab owns x=%d", i))
}

func (s slabs) scatter(c *mesh.Comm, global *grid.G3, nz int) *grid.G3 {
	if nz != s[0].NZ {
		s = slices.Clone(s)
		for i := range s {
			s[i].NZ = nz
		}
	}
	return c.ScatterX(global, s, 0, 0)
}

func (s slabs) gather(c *mesh.Comm, local *grid.G3) *grid.G3 {
	return c.GatherX(local, s, 0)
}

// blocks2D is the px-by-py block decomposition of the x and y axes,
// redistributed a block at a time (mesh.Scatter3DBlocks /
// Gather3DBlocks).
type blocks2D struct {
	topo *mesh.Topo2D
	nz   int
}

func (b blocks2D) procs() int { return b.topo.P() }

func (b blocks2D) block(rank int) block {
	t := b.topo
	xr, yr := t.Block(rank)
	rx, ry := t.Coords(rank)
	return block{
		xr: xr, yr: yr,
		xUp: t.Rank(rx+1, ry), xDown: t.Rank(rx-1, ry),
		yUp: t.Rank(rx, ry+1), yDown: t.Rank(rx, ry-1),
		exchangeY: true,
	}
}

func (b blocks2D) owner(i, j int) int { return b.topo.Owner(i, j) }

func (b blocks2D) scatter(c *mesh.Comm, global *grid.G3, nz int) *grid.G3 {
	return c.Scatter3DBlocks(global, b.topo, nz, 0, 0, 0)
}

func (b blocks2D) gather(c *mesh.Comm, local *grid.G3) *grid.G3 {
	return c.Gather3DBlocks(local, b.topo, b.nz, 0)
}

// decompose is the single admission point of every build: it validates
// the spec and the px-by-py process grid and returns the decomposition —
// x-slabs when slabbed (callers pass py == 1), blocks otherwise (py == 1 blocks
// own the same cells as slabs but keep the block protocol).
func decompose(spec Spec, px, py int, slabbed bool) (decomposition, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if px <= 0 || px > spec.NX || py <= 0 || py > spec.NY {
		return nil, fmt.Errorf("fdtd: cannot distribute %dx%d planes over %dx%d processes",
			spec.NX, spec.NY, px, py)
	}
	var dec decomposition = blocks2D{topo: mesh.NewTopo2D(spec.NX, spec.NY, px, py), nz: spec.NZ}
	if slabbed {
		dec = slabs(grid.SlabDecompose3(spec.NX, spec.NY, spec.NZ, px, grid.AxisX))
	}
	if spec.Boundary == BoundaryMur1 {
		// The Mur update reads the plane directly inside each face it
		// owns, so every boundary block needs >= 2 planes on its owned
		// face axes.
		for r := 0; r < dec.procs(); r++ {
			b := dec.block(r)
			if (b.xr.Lo == 0 || b.xr.Hi == spec.NX) && b.xr.Len() < 2 {
				return nil, fmt.Errorf("fdtd: Mur boundary requires x-edge blocks to own >= 2 planes (nx=%d, px=%d)", spec.NX, px)
			}
			if (b.yr.Lo == 0 || b.yr.Hi == spec.NY) && b.yr.Len() < 2 {
				return nil, fmt.Errorf("fdtd: Mur boundary requires y-edge blocks to own >= 2 planes (ny=%d, py=%d)", spec.NY, py)
			}
		}
	}
	return dec, nil
}

// ValidateForP reports the first problem with running spec distributed
// over p processes: an invalid spec, too many processes for the grid,
// or a boundary treatment the edge slabs cannot support.  It is the
// admission-time check of the job service — the exact predicate the
// workers apply, so an admitted job cannot fail decomposition later.
func ValidateForP(spec Spec, p int) error {
	_, err := decompose(spec, p, 1, true)
	return err
}
