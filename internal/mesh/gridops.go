package mesh

import "fmt"

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
