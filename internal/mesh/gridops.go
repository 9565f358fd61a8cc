package mesh

import (
	"fmt"

	"repro/internal/grid"
	"repro/internal/obs"
)

// The operations in this file assume a one-dimensional block ("slab")
// distribution along the x axis: process r owns a contiguous range of
// global x indices, with rank r-1 holding the slab below and r+1 the
// slab above.  This is the distribution the paper's FDTD experiments
// use; the archetype generalises to 2-D and 3-D process grids, but the
// communication structure per axis is identical to what is here.

// ExchangeGhostRows refreshes the ghost rows of a 2-D local section
// split along x: each process sends its top and bottom interior rows to
// its neighbours and receives their boundary rows into its ghost rows.
// All sends are performed before any receives, the ordering that
// guarantees no receive from an empty channel in the simulated-parallel
// execution.
func (c *Comm) ExchangeGhostRows(g *grid.G2) {
	p, r := c.P(), c.Rank()
	w := g.Ghost()
	if w == 0 {
		panic("mesh: ExchangeGhostRows requires a ghost boundary")
	}
	nx := g.NX()
	if 2*w > nx {
		panic(fmt.Sprintf("mesh: ghost width %d too large for %d local rows", w, nx))
	}
	c.beginPhase(obs.PhaseExchange, "ghost-exchange")
	ny := g.NY()
	// Sends first.
	if r > 0 { // to lower neighbour: my lowest w interior rows
		c.sendPlanes(r-1, w, ny, func(k int, dst []float64) { copy(dst, g.Row(k)) })
	}
	if r < p-1 { // to upper neighbour: my highest w interior rows
		c.sendPlanes(r+1, w, ny, func(k int, dst []float64) { copy(dst, g.Row(nx-w+k)) })
	}
	c.flush()
	// Then receives.
	if r > 0 { // from lower neighbour into ghost rows -w..-1
		c.recvPlanes(r-1, w, func(k int, data []float64) {
			copyRow2(g, -w+k, data)
		})
	}
	if r < p-1 { // from upper neighbour into ghost rows nx..nx+w-1
		c.recvPlanes(r+1, w, func(k int, data []float64) {
			copyRow2(g, nx+k, data)
		})
	}
	c.endPhase()
}

func copyRow2(g *grid.G2, i int, data []float64) {
	if len(data) != g.NY() {
		panic(fmt.Sprintf("mesh: ghost row length %d, want %d", len(data), g.NY()))
	}
	g.UnpackRow(i, 0, data)
}

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

// GatherX collects the distributed slabs of a 3-D grid onto the root
// process (the archetype's grid-to-host redistribution for file
// output).  It returns the assembled global grid on root and nil on
// every other process.  slabs must be the decomposition used to build
// the local sections.
func (c *Comm) GatherX(local *grid.G3, slabs []grid.Slab, root int) *grid.G3 {
	p, r := c.P(), c.Rank()
	if len(slabs) != p {
		panic(fmt.Sprintf("mesh: %d slabs for %d processes", len(slabs), p))
	}
	c.beginPhase(obs.PhaseIO, "gather")
	defer c.endPhase()
	if r != root {
		c.sendPlanes(root, local.NX(), local.PlaneSize(grid.AxisX),
			func(k int, dst []float64) { local.PackPlaneX(k, dst) })
		c.flush()
		return nil
	}
	s := slabs[r]
	global := grid.New3(s.NX, s.NY, s.NZ, 0)
	// Own slab directly, no serialisation.
	for k := 0; k < local.NX(); k++ {
		global.CopyPlaneX(s.ToGlobal(k), local, k)
	}
	// Remote slabs in rank order.
	for src := 0; src < p; src++ {
		if src == root {
			continue
		}
		sl := slabs[src]
		c.recvPlanes(src, sl.LocalNX(), func(k int, data []float64) {
			global.UnpackPlaneX(sl.ToGlobal(k), data)
		})
	}
	return global
}

// ScatterX distributes a global 3-D grid held by root into per-process
// local sections with the given ghost width along x (the archetype's
// host-to-grid redistribution for file input).  Every process returns
// its local section; global is only read on root.
func (c *Comm) ScatterX(global *grid.G3, slabs []grid.Slab, root, ghost int) *grid.G3 {
	p, r := c.P(), c.Rank()
	if len(slabs) != p {
		panic(fmt.Sprintf("mesh: %d slabs for %d processes", len(slabs), p))
	}
	c.beginPhase(obs.PhaseIO, "scatter")
	defer c.endPhase()
	if r == root {
		if global == nil {
			panic("mesh: ScatterX requires the global grid on root")
		}
		size := global.PlaneSize(grid.AxisX)
		for dst := 0; dst < p; dst++ {
			if dst == root {
				continue
			}
			sl := slabs[dst]
			c.sendPlanes(dst, sl.LocalNX(), size, func(k int, buf []float64) {
				global.PackPlaneX(sl.ToGlobal(k), buf)
			})
		}
		c.flush()
		sl := slabs[r]
		local := sl.NewLocal3(ghost)
		for k := 0; k < sl.LocalNX(); k++ {
			local.CopyPlaneX(k, global, sl.ToGlobal(k))
		}
		return local
	}
	sl := slabs[r]
	local := sl.NewLocal3(ghost)
	c.recvPlanes(root, sl.LocalNX(), func(k int, data []float64) {
		local.UnpackPlaneX(k, data)
	})
	return local
}

// GatherRows collects a 2-D grid distributed by rows onto root,
// returning the global grid on root and nil elsewhere.  ranges is the
// x decomposition (grid.Decompose of the global NX).
func (c *Comm) GatherRows(local *grid.G2, ranges []grid.Range, globalNX int, root int) *grid.G2 {
	p, r := c.P(), c.Rank()
	if len(ranges) != p {
		panic(fmt.Sprintf("mesh: %d ranges for %d processes", len(ranges), p))
	}
	c.beginPhase(obs.PhaseIO, "gather")
	defer c.endPhase()
	if r != root {
		c.sendPlanes(root, local.NX(), local.NY(),
			func(k int, dst []float64) { copy(dst, local.Row(k)) })
		c.flush()
		return nil
	}
	global := grid.New2(globalNX, local.NY(), 0)
	for k := 0; k < local.NX(); k++ {
		global.UnpackRow(ranges[r].Lo+k, 0, local.Row(k))
	}
	for src := 0; src < p; src++ {
		if src == root {
			continue
		}
		rg := ranges[src]
		c.recvPlanes(src, rg.Len(), func(k int, data []float64) {
			copyRow2(global, rg.Lo+k, data)
		})
	}
	return global
}
