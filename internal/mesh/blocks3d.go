package mesh

import (
	"fmt"

	"repro/internal/grid"
	"repro/internal/obs"
)

// Host/grid redistribution of 3-D grids distributed over a 2-D process
// topology (x and y split, z whole): the file-I/O pattern for the
// 2-D-decomposed builds of the FDTD application.

// packLocal3Into serialises a local section's interior, x-major then
// y-major then z, into dst (length NX*NY*NZ, typically pooled).
func packLocal3Into(g *grid.G3, dst []float64) {
	nz := g.NZ()
	off := 0
	for i := 0; i < g.NX(); i++ {
		for j := 0; j < g.NY(); j++ {
			copy(dst[off:off+nz], g.Pencil(i, j))
			off += nz
		}
	}
}

// unpackInto writes a packed local section into the global grid at the
// block position (xr, yr).
func unpackInto(global *grid.G3, xr, yr grid.Range, data []float64) {
	nz := global.NZ()
	off := 0
	for i := 0; i < xr.Len(); i++ {
		for j := 0; j < yr.Len(); j++ {
			copy(global.Pencil(xr.Lo+i, yr.Lo+j), data[off:off+nz])
			off += nz
		}
	}
}

// copyBlockIn copies a local section's interior pencils directly into
// the global grid (root's own block: no serialisation round trip).
func copyBlockIn(global *grid.G3, xr, yr grid.Range, local *grid.G3) {
	for i := 0; i < local.NX(); i++ {
		for j := 0; j < local.NY(); j++ {
			copy(global.Pencil(xr.Lo+i, yr.Lo+j), local.Pencil(i, j))
		}
	}
}

// copyBlockOut copies the (xr, yr) block of the global grid directly
// into a local section's interior pencils.
func copyBlockOut(local *grid.G3, global *grid.G3, xr, yr grid.Range) {
	for i := 0; i < local.NX(); i++ {
		for j := 0; j < local.NY(); j++ {
			copy(local.Pencil(i, j), global.Pencil(xr.Lo+i, yr.Lo+j))
		}
	}
}

// Gather3DBlocks collects a 3-D grid distributed as (x, y) blocks onto
// root, returning the assembled global grid there and nil elsewhere.
// nz is the (undistributed) z extent.
func (c *Comm) Gather3DBlocks(local *grid.G3, t *Topo2D, nz, root int) *grid.G3 {
	if c.P() != t.P() {
		panic(fmt.Sprintf("mesh: topology has %d processes, run has %d", t.P(), c.P()))
	}
	c.beginPhase(obs.PhaseIO, "gather-3d-blocks")
	defer c.endPhase()
	r := c.Rank()
	if r != root {
		buf := getBuf(local.NX() * local.NY() * local.NZ())
		packLocal3Into(local, buf)
		c.sendOwned(root, buf)
		return nil
	}
	// The preallocated global grid is the full receive area; the own
	// block is copied pencil-by-pencil, received blocks are unpacked
	// straight into place and their payloads returned to the arena.
	global := grid.New3(t.NX, t.NY, nz, 0)
	xr, yr := t.Block(r)
	copyBlockIn(global, xr, yr, local)
	for src := 0; src < c.P(); src++ {
		if src == root {
			continue
		}
		sxr, syr := t.Block(src)
		buf := c.recv(src)
		unpackInto(global, sxr, syr, buf)
		putBuf(buf)
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
	c.beginPhase(obs.PhaseIO, "scatter-3d-blocks")
	defer c.endPhase()
	r := c.Rank()
	mkLocal := func(rank int) *grid.G3 {
		xr, yr := t.Block(rank)
		return grid.New3G(xr.Len(), yr.Len(), nz, gx, gy, 0)
	}
	fill := func(local *grid.G3, data []float64) {
		off := 0
		for i := 0; i < local.NX(); i++ {
			for j := 0; j < local.NY(); j++ {
				copy(local.Pencil(i, j), data[off:off+nz])
				off += nz
			}
		}
	}
	if r == root {
		if global == nil {
			panic("mesh: Scatter3DBlocks requires the global grid on root")
		}
		for dst := 0; dst < c.P(); dst++ {
			if dst == root {
				continue
			}
			xr, yr := t.Block(dst)
			buf := getBuf(xr.Len() * yr.Len() * nz)
			off := 0
			for i := xr.Lo; i < xr.Hi; i++ {
				for j := yr.Lo; j < yr.Hi; j++ {
					copy(buf[off:off+nz], global.Pencil(i, j))
					off += nz
				}
			}
			c.sendOwned(dst, buf)
		}
		local := mkLocal(r)
		xr, yr := t.Block(r)
		copyBlockOut(local, global, xr, yr)
		return local
	}
	local := mkLocal(r)
	buf := c.recv(root)
	fill(local, buf)
	putBuf(buf)
	return local
}
