package mesh

import (
	"fmt"

	"repro/internal/grid"
	"repro/internal/obs"
)

// Host/grid redistribution of 3-D grids distributed over a 2-D process
// topology (x and y split, z whole): the file-I/O pattern of the mesh
// archetype's block distribution.  A block travels as its x-planes,
// one message per plane or one combined message (sendPlanes), so a
// px x 1 topology moves the same planes as a plane-by-plane slab
// redistribution.

// sendPlanes transmits w equal-sized planes to a neighbour: as a single
// combined message when Options.Combine is set, otherwise as w
// individual messages (the message-combining ablation).  Each plane is
// packed by the callback directly into a pooled message buffer of
// length size — no intermediate copy — and the buffer is handed to the
// channel by ownership transfer (sendOwned).
func (c *Comm) sendPlanes(to, w, size int, pack func(k int, dst []float64)) {
	if c.opt.Combine {
		buf := getBuf(w * size)
		for k := 0; k < w; k++ {
			pack(k, buf[k*size:(k+1)*size])
		}
		c.sendOwned(to, buf)
		return
	}
	for k := 0; k < w; k++ {
		buf := getBuf(size)
		pack(k, buf)
		c.sendOwned(to, buf)
	}
}

// recvPlanes receives w planes from a neighbour, mirroring sendPlanes,
// and returns each consumed payload to the buffer arena.  The slices
// passed to deliver are only valid for the duration of the call.
func (c *Comm) recvPlanes(from, w int, deliver func(k int, data []float64)) {
	if c.opt.Combine {
		buf := c.recv(from)
		if w == 0 {
			putBuf(buf)
			return
		}
		if len(buf)%w != 0 {
			panic(fmt.Sprintf("mesh: combined message length %d not divisible by %d planes", len(buf), w))
		}
		sz := len(buf) / w
		for k := 0; k < w; k++ {
			deliver(k, buf[k*sz:(k+1)*sz])
		}
		putBuf(buf)
		return
	}
	for k := 0; k < w; k++ {
		buf := c.recv(from)
		deliver(k, buf)
		putBuf(buf)
	}
}

// packPlane copies the z-pencils (i, j0), …, (i, j0+n-1) of g into
// dst, j-major.
func packPlane(g *grid.G3, i, j0, n int, dst []float64) {
	nz := g.NZ()
	for j := 0; j < n; j++ {
		copy(dst[j*nz:(j+1)*nz], g.Pencil(i, j0+j))
	}
}

// unpackPlane is packPlane's inverse: it writes data's pencils to
// (i, j0), (i, j0+1), … of g.
func unpackPlane(g *grid.G3, i, j0 int, data []float64) {
	nz := g.NZ()
	for j := 0; j < len(data)/nz; j++ {
		copy(g.Pencil(i, j0+j), data[j*nz:(j+1)*nz])
	}
}

// copyBlock copies the nx x ny pencils at (si, sj) of src to (di, dj)
// of dst: root's own block, with no serialisation round trip.
func copyBlock(dst *grid.G3, di, dj int, src *grid.G3, si, sj, nx, ny int) {
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			copy(dst.Pencil(di+i, dj+j), src.Pencil(si+i, sj+j))
		}
	}
}

// Gather3DBlocks collects a 3-D grid distributed as (x, y) blocks onto
// root, returning the assembled global grid there and nil elsewhere.
// The (undistributed) z extent is the root's local.NZ().
func (c *Comm) Gather3DBlocks(local *grid.G3, t *Topo2D, root int) *grid.G3 {
	if c.P() != t.P() {
		panic(fmt.Sprintf("mesh: topology has %d processes, run has %d", t.P(), c.P()))
	}
	c.beginPhase(obs.PhaseIO, "gather")
	defer c.endPhase()
	r := c.Rank()
	if r != root {
		ny := local.NY()
		c.sendPlanes(root, local.NX(), ny*local.NZ(), func(k int, dst []float64) { packPlane(local, k, 0, ny, dst) })
		c.flush()
		return nil
	}
	// The preallocated global grid is the full receive area; the own
	// block is copied pencil by pencil, received planes are unpacked
	// straight into place.
	global := grid.New3(t.NX, t.NY, local.NZ(), 0)
	xr, yr := t.Block(r)
	copyBlock(global, xr.Lo, yr.Lo, local, 0, 0, xr.Len(), yr.Len())
	for src := 0; src < c.P(); src++ {
		if src == root {
			continue
		}
		sxr, syr := t.Block(src)
		c.recvPlanes(src, sxr.Len(), func(k int, data []float64) { unpackPlane(global, sxr.Lo+k, syr.Lo, data) })
	}
	return global
}

// Scatter3DBlocks distributes a global 3-D grid held by root into
// (x, y) block local sections with the given per-axis ghost widths.
// Every process returns its local section; global is read only on root.
func (c *Comm) Scatter3DBlocks(global *grid.G3, t *Topo2D, nz, root, gx, gy int) *grid.G3 {
	if c.P() != t.P() {
		panic(fmt.Sprintf("mesh: topology has %d processes, run has %d", t.P(), c.P()))
	}
	c.beginPhase(obs.PhaseIO, "scatter")
	defer c.endPhase()
	r := c.Rank()
	xr, yr := t.Block(r)
	local := grid.New3G(xr.Len(), yr.Len(), nz, gx, gy, 0)
	if r != root {
		c.recvPlanes(root, xr.Len(), func(k int, data []float64) { unpackPlane(local, k, 0, data) })
		return local
	}
	if global == nil {
		panic("mesh: Scatter3DBlocks requires the global grid on root")
	}
	for dst := 0; dst < c.P(); dst++ {
		if dst == root {
			continue
		}
		dxr, dyr := t.Block(dst)
		c.sendPlanes(dst, dxr.Len(), dyr.Len()*nz, func(k int, buf []float64) { packPlane(global, dxr.Lo+k, dyr.Lo, dyr.Len(), buf) })
	}
	c.flush()
	copyBlock(local, 0, 0, global, xr.Lo, yr.Lo, xr.Len(), yr.Len())
	return local
}
