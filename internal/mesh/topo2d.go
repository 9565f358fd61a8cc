package mesh

import (
	"fmt"

	"repro/internal/grid"
	"repro/internal/obs"
)

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

// ExchangeGhost2D refreshes the ghost boundary of a 2-D local section
// in a 2-D block distribution: row strips travel to the x-neighbours,
// column strips to the y-neighbours, and, when corners is set, the
// corner blocks to the four diagonal neighbours (needed by 9-point
// stencils; 5-point stencils can pass corners=false and halve the
// neighbour count).  All sends precede all receives.
func (c *Comm) ExchangeGhost2D(g *grid.G2, t *Topo2D, corners bool) {
	if c.P() != t.P() {
		panic(fmt.Sprintf("mesh: topology has %d processes, run has %d", t.P(), c.P()))
	}
	w := g.Ghost()
	if w == 0 {
		panic("mesh: ExchangeGhost2D requires a ghost boundary")
	}
	nx, ny := g.NX(), g.NY()
	if 2*w > nx || 2*w > ny {
		panic(fmt.Sprintf("mesh: ghost width %d too large for %dx%d local block", w, nx, ny))
	}
	c.beginPhase(obs.PhaseExchange, "ghost-exchange-2d")
	rx, ry := t.Coords(c.Rank())
	up := t.Rank(rx-1, ry)
	down := t.Rank(rx+1, ry)
	left := t.Rank(rx, ry-1)
	right := t.Rank(rx, ry+1)
	ul := t.Rank(rx-1, ry-1)
	ur := t.Rank(rx-1, ry+1)
	dl := t.Rank(rx+1, ry-1)
	dr := t.Rank(rx+1, ry+1)

	// sendCorner packs a w-by-w corner block into a pooled buffer and
	// hands it off to the channel.
	sendCorner := func(to, i0, j0 int) {
		buf := getBuf(w * w)
		g.PackBlock(i0, j0, w, w, buf)
		c.sendOwned(to, buf)
	}
	recvCorner := func(from, i0, j0 int) {
		buf := c.recv(from)
		g.UnpackBlock(i0, j0, w, w, buf)
		putBuf(buf)
	}

	// Sends: edge strips, then corner blocks.
	if up >= 0 {
		c.sendPlanes(up, w, ny, func(k int, dst []float64) { g.PackRow(k, 0, ny, dst) })
	}
	if down >= 0 {
		c.sendPlanes(down, w, ny, func(k int, dst []float64) { g.PackRow(nx-w+k, 0, ny, dst) })
	}
	if left >= 0 {
		c.sendPlanes(left, w, nx, func(k int, dst []float64) { g.PackCol(k, 0, nx, dst) })
	}
	if right >= 0 {
		c.sendPlanes(right, w, nx, func(k int, dst []float64) { g.PackCol(ny-w+k, 0, nx, dst) })
	}
	if corners {
		if ul >= 0 {
			sendCorner(ul, 0, 0)
		}
		if ur >= 0 {
			sendCorner(ur, 0, ny-w)
		}
		if dl >= 0 {
			sendCorner(dl, nx-w, 0)
		}
		if dr >= 0 {
			sendCorner(dr, nx-w, ny-w)
		}
	}
	// Receives, mirroring the neighbours' sends.
	if up >= 0 {
		c.recvPlanes(up, w, func(k int, data []float64) { g.UnpackRow(-w+k, 0, data) })
	}
	if down >= 0 {
		c.recvPlanes(down, w, func(k int, data []float64) { g.UnpackRow(nx+k, 0, data) })
	}
	if left >= 0 {
		c.recvPlanes(left, w, func(k int, data []float64) { g.UnpackCol(-w+k, 0, data) })
	}
	if right >= 0 {
		c.recvPlanes(right, w, func(k int, data []float64) { g.UnpackCol(ny+k, 0, data) })
	}
	if corners {
		if ul >= 0 {
			recvCorner(ul, -w, -w)
		}
		if ur >= 0 {
			recvCorner(ur, -w, ny)
		}
		if dl >= 0 {
			recvCorner(dl, nx, -w)
		}
		if dr >= 0 {
			recvCorner(dr, nx, ny)
		}
	}
	c.endPhase()
}

// Gather2D collects a 2-D block-distributed grid onto root, returning
// the assembled global grid there and nil elsewhere.  A block travels
// as its rows: one message per row, or one per block when combining.
func (c *Comm) Gather2D(local *grid.G2, t *Topo2D, root int) *grid.G2 {
	c.beginPhase(obs.PhaseIO, "gather-2d")
	defer c.endPhase()
	r := c.Rank()
	if r != root {
		ny := local.NY()
		c.sendPlanes(root, local.NX(), ny, func(k int, dst []float64) { local.PackRow(k, 0, ny, dst) })
		c.flush()
		return nil
	}
	// The full receive area is the preallocated global grid itself;
	// every block — own and received — is written straight into place.
	global := grid.New2(t.NX, t.NY, 0)
	xr, yr := t.Block(root)
	for i := 0; i < local.NX(); i++ {
		global.UnpackRow(xr.Lo+i, yr.Lo, local.Row(i))
	}
	for src := 0; src < c.P(); src++ {
		if src == root {
			continue
		}
		sxr, syr := t.Block(src)
		c.recvPlanes(src, sxr.Len(), func(k int, data []float64) { global.UnpackRow(sxr.Lo+k, syr.Lo, data) })
	}
	return global
}
