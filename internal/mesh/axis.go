package mesh

import (
	"fmt"

	"repro/internal/grid"
	"repro/internal/obs"
)

// The 3-D boundary exchange.  The mesh archetype distributes a grid as
// contiguous blocks along one or more axes; the exchange logic is
// identical for every axis, differing only in which planes are packed.
// There is one exchange family: ExchangeGhostPlanesMulti refreshes both
// ghost sides of several grids in one phase, and the four Start/Finish
// halves ship one direction each, split at the point where the caller
// may compute on cells that read no ghost.  Both pack and unpack through
// haloSend and haloRecv, so a plane travels in the same message layout
// whichever entry point moved it.
//
// Every operation accepts several grids at once: when message combining
// is enabled, the boundary planes of all grids travel to a neighbour in
// a single message — the paper's combining of message-passing
// operations "with a common sender and a common receiver".
//
// The directional halves' observability labels are precomputed per
// axis: label strings sit on the per-step hot path and building them
// with concatenation would allocate on every exchange.
var (
	directionalSendLabels = [3]string{"directional-send-x", "directional-send-y", "directional-send-z"}
	directionalRecvLabels = [3]string{"directional-recv-x", "directional-recv-y", "directional-recv-z"}
)

func axisLabel(tab *[3]string, axis grid.Axis) string {
	if axis < 0 || int(axis) >= len(tab) {
		panic(fmt.Sprintf("mesh: bad axis %v", axis))
	}
	return tab[axis]
}

// ExchangeGhostPlanesMulti refreshes the ghost planes of several grids
// split along the same axis in one coalesced exchange with both
// neighbours of the 1-D chain of ranks: all planes bound for one
// neighbour — every ghost layer of every grid — travel in a single
// message per direction (when Options.Combine is set), instead of one
// message per grid.  For a six-field full exchange that is a 6x cut in
// the message count.  The full ghost width of the first grid is
// exchanged; every grid must have at least that ghost width and the
// same plane size.
func (c *Comm) ExchangeGhostPlanesMulti(axis grid.Axis, gs ...*grid.G3) {
	if len(gs) == 0 {
		return
	}
	p, r := c.P(), c.Rank()
	w := gs[0].AxisGhost(axis)
	if w == 0 {
		panic(fmt.Sprintf("mesh: ExchangeGhostPlanesMulti requires a ghost boundary along %v", axis))
	}
	haloValidate(axis, w, gs)
	down, up := r-1, r+1
	if up == p {
		up = -1
	}
	c.beginPhase(obs.PhaseExchange, "ghost-exchange-multi")
	c.haloSend(axis, false, down, w, gs)
	c.haloSend(axis, true, up, w, gs)
	c.flush()
	c.haloRecv(axis, true, down, w, gs)
	c.haloRecv(axis, false, up, w, gs)
	c.endPhase()
}

// StartSendUpTo ships each grid's top interior plane along the axis to
// the rank above (sendTo, -1 when absent); the matching FinishSendUpTo
// fills each grid's low ghost plane from the rank below.  Neighbours
// are named by the caller, as for processes on a 2-D process grid,
// where the neighbour along an axis is not rank±1.  This is the
// direction the FDTD E update needs (it reads H one plane below).
//
// Between the two halves the caller may update any cell that does not
// read the low ghost plane, so that computation overlaps the message
// flight.  Deferring a receive past computation that does not read the
// received cells changes nothing, by the same determinacy argument as
// Theorem 1.  Each half is its own bulk-synchronous phase, so all ranks
// must call Start and Finish in the same order.
func (c *Comm) StartSendUpTo(axis grid.Axis, sendTo int, gs ...*grid.G3) {
	c.startHalf(axis, true, sendTo, gs)
}

// FinishSendUpTo completes a StartSendUpTo by receiving the upward
// messages from the rank below (recvFrom, -1 when absent) into each
// grid's low ghost plane.
func (c *Comm) FinishSendUpTo(axis grid.Axis, recvFrom int, gs ...*grid.G3) {
	c.finishHalf(axis, true, recvFrom, gs)
}

// StartSendDownTo ships each grid's bottom interior plane to the rank
// below (sendTo); the FDTD H update needs this direction (it reads E
// one plane above).  It is the mirror image of StartSendUpTo.
func (c *Comm) StartSendDownTo(axis grid.Axis, sendTo int, gs ...*grid.G3) {
	c.startHalf(axis, false, sendTo, gs)
}

// FinishSendDownTo completes a StartSendDownTo by receiving the
// downward messages from the rank above into each grid's high ghost
// plane.
func (c *Comm) FinishSendDownTo(axis grid.Axis, recvFrom int, gs ...*grid.G3) {
	c.finishHalf(axis, false, recvFrom, gs)
}

func (c *Comm) startHalf(axis grid.Axis, up bool, sendTo int, gs []*grid.G3) {
	c.beginPhase(obs.PhaseExchange, axisLabel(&directionalSendLabels, axis))
	if len(gs) > 0 {
		haloValidate(axis, 1, gs)
		c.haloSend(axis, up, sendTo, 1, gs)
		// End of the send half: push the coalesced frames now so the
		// message flight overlaps the caller's computation.
		c.flush()
	}
	c.endPhase()
}

func (c *Comm) finishHalf(axis grid.Axis, up bool, recvFrom int, gs []*grid.G3) {
	c.beginPhase(obs.PhaseExchange, axisLabel(&directionalRecvLabels, axis))
	if len(gs) > 0 {
		c.haloRecv(axis, up, recvFrom, 1, gs)
	}
	c.endPhase()
}

// haloValidate panics unless every grid can send and receive w planes
// along the axis: a ghost width of at least w, at least w interior
// planes, and one common plane size.
func haloValidate(axis grid.Axis, w int, gs []*grid.G3) {
	size := gs[0].PlaneSize(axis)
	for _, g := range gs {
		if g.AxisGhost(axis) < w {
			panic(fmt.Sprintf("mesh: ghost exchange requires ghost width >= %d along %v", w, axis))
		}
		if n := g.AxisN(axis); w > n {
			panic(fmt.Sprintf("mesh: ghost width %d too large for %d local planes along %v", w, n, axis))
		}
		if g.PlaneSize(axis) != size {
			panic(fmt.Sprintf("mesh: ghost exchange requires equal plane sizes: %v vs %v", g, gs[0]))
		}
	}
}

// haloSend packs the w boundary planes of every grid — the top interior
// planes when up, the bottom ones otherwise — grid by grid, and ships
// them to sendTo as a single pooled message, or as one message per
// plane when message combining is off.  The loops pack straight into
// the outgoing buffer: no closures, no intermediate copies.  A negative
// sendTo (no neighbour) sends nothing.
func (c *Comm) haloSend(axis grid.Axis, up bool, sendTo, w int, gs []*grid.G3) {
	if sendTo < 0 {
		return
	}
	size := gs[0].PlaneSize(axis)
	var buf []float64
	if c.opt.Combine {
		buf = getBuf(len(gs) * w * size)
	}
	off := 0
	for _, g := range gs {
		lo := 0
		if up {
			lo = g.AxisN(axis) - w
		}
		for k := 0; k < w; k++ {
			if !c.opt.Combine {
				buf, off = getBuf(size), 0
			}
			g.PackPlane(axis, lo+k, buf[off:off+size])
			off += size
			if !c.opt.Combine {
				c.sendOwned(sendTo, buf)
			}
		}
	}
	if c.opt.Combine {
		c.sendOwned(sendTo, buf)
	}
}

// haloRecv receives what haloSend shipped from recvFrom and unpacks it
// into each grid's ghost planes — the low ghosts when up, the high ones
// otherwise — returning every consumed payload to the arena.
func (c *Comm) haloRecv(axis grid.Axis, up bool, recvFrom, w int, gs []*grid.G3) {
	if recvFrom < 0 {
		return
	}
	size := gs[0].PlaneSize(axis)
	var buf []float64
	if c.opt.Combine {
		buf = c.recv(recvFrom)
		if len(buf) != len(gs)*w*size {
			panic(fmt.Sprintf("mesh: ghost message length %d, want %d", len(buf), len(gs)*w*size))
		}
	}
	off := 0
	for _, g := range gs {
		lo := -w
		if !up {
			lo = g.AxisN(axis)
		}
		for k := 0; k < w; k++ {
			if !c.opt.Combine {
				buf, off = c.recv(recvFrom), 0
			}
			g.UnpackPlane(axis, lo+k, buf[off:off+size])
			off += size
			if !c.opt.Combine {
				putBuf(buf)
			}
		}
	}
	if c.opt.Combine {
		putBuf(buf)
	}
}
