package mesh

import (
	"fmt"

	"repro/internal/obs"
)

// ReduceOp is an associative (or associatively treated) binary
// combining operation for reductions.  The paper notes that treating
// floating-point addition as associative is an *assumption*; the two
// reduction algorithms below combine partial results in different
// orders, which is exactly why the far-field experiment diverged.
type ReduceOp struct {
	Name string
	F    func(a, b float64) float64
}

// Built-in reduction operations.
var (
	// OpSum adds.
	OpSum = ReduceOp{Name: "sum", F: func(a, b float64) float64 { return a + b }}
	// OpMax takes the maximum.
	OpMax = ReduceOp{Name: "max", F: func(a, b float64) float64 {
		if a >= b {
			return a
		}
		return b
	}}
	// OpMin takes the minimum.
	OpMin = ReduceOp{Name: "min", F: func(a, b float64) float64 {
		if a <= b {
			return a
		}
		return b
	}}
)

// ReduceAlg selects how a reduction combines partial results.
type ReduceAlg int

// Reduction algorithms (both appear in the paper's list of
// communication patterns: "all-to-one/one-to-all or recursive
// doubling").
const (
	// RecursiveDoubling runs a butterfly over the nearest power of two
	// of processes: log2(P) rounds, every process finishing with the
	// result.  Combination order is a balanced tree.
	RecursiveDoubling ReduceAlg = iota
	// AllToOne sends every partial to rank 0, which combines them in
	// rank order (matching the sequential order of block partials) and
	// broadcasts the result.
	AllToOne
)

func (a ReduceAlg) String() string {
	switch a {
	case RecursiveDoubling:
		return "recursive-doubling"
	case AllToOne:
		return "all-to-one"
	}
	return fmt.Sprintf("ReduceAlg(%d)", int(a))
}

// Barrier synchronises all processes (dissemination barrier: ceil(log2
// P) rounds of neighbour signalling).
func (c *Comm) Barrier() {
	p, r := c.P(), c.Rank()
	c.beginPhase(obs.PhaseCollective, "barrier")
	for k := 1; k < p; k <<= 1 {
		c.send((r+k)%p, nil)
		c.flush()
		putBuf(c.recv((r - k + p) % p))
	}
	c.endPhase()
}

// Broadcast distributes root's value of v to every process; each
// process passes its local v and receives the root's.  This is the
// archetype's "broadcast of global data" used to re-establish copy
// consistency of duplicated global variables.
func (c *Comm) Broadcast(v float64, root int) float64 {
	out := c.BroadcastVec([]float64{v}, root)
	return out[0]
}

// BroadcastVec distributes root's vals slice to every process via a
// binomial tree (receive from parent, then forward to children).  The
// returned slice is freshly allocated on non-root processes.
func (c *Comm) BroadcastVec(vals []float64, root int) []float64 {
	p, r := c.P(), c.Rank()
	if root < 0 || root >= p {
		panic(fmt.Sprintf("mesh: broadcast root %d out of range [0,%d)", root, p))
	}
	c.beginPhase(obs.PhaseCollective, "broadcast")
	vrank := (r - root + p) % p
	// lsb: for the root, the next power of two >= p; otherwise the
	// lowest set bit of vrank.  Children of vrank are vrank+m for each
	// power of two m below lsb.
	var lsb int
	if vrank == 0 {
		lsb = 1
		for lsb < p {
			lsb <<= 1
		}
	} else {
		lsb = vrank & (-vrank)
		parent := vrank - lsb
		vals = c.recv((parent + root) % p)
	}
	for m := lsb >> 1; m >= 1; m >>= 1 {
		child := vrank + m
		if child < p {
			c.send((child+root)%p, vals)
		}
	}
	c.flush()
	c.endPhase()
	return vals
}

// AllReduce combines every process's v under op and returns the result
// on every process, using the run's configured algorithm.
func (c *Comm) AllReduce(v float64, op ReduceOp) float64 {
	return c.AllReduceAlg(v, op, c.opt.ReduceAlg)
}

// AllReduceAlg is AllReduce with an explicit algorithm choice.
func (c *Comm) AllReduceAlg(v float64, op ReduceOp, alg ReduceAlg) float64 {
	out := c.AllReduceVecAlg([]float64{v}, op, alg)
	return out[0]
}

// AllReduceVecAlg element-wise combines every process's vals under op
// with the given algorithm and returns the combined vector on every
// process.  All processes must pass vectors of the same length.  The
// input slice is not modified.
func (c *Comm) AllReduceVecAlg(vals []float64, op ReduceOp, alg ReduceAlg) []float64 {
	c.beginPhase(obs.PhaseCollective, "reduce")
	acc := make([]float64, len(vals))
	copy(acc, vals)
	switch alg {
	case RecursiveDoubling:
		c.reduceRecursiveDoubling(acc, op)
	case AllToOne:
		c.reduceAllToOne(acc, op)
	default:
		panic(fmt.Sprintf("mesh: unknown reduction algorithm %v", alg))
	}
	c.endPhase()
	return acc
}

// combineInto sets acc = op(lowerRankValue, higherRankValue) elementwise.
// Keeping the lower rank's contribution on the left makes the
// combination order a pure function of ranks, so both partners of a
// butterfly exchange compute bitwise identical results.
func combineInto(acc, other []float64, op ReduceOp, accIsLower bool) {
	if len(acc) != len(other) {
		panic(fmt.Sprintf("mesh: reduction length mismatch: %d vs %d", len(acc), len(other)))
	}
	for i := range acc {
		if accIsLower {
			acc[i] = op.F(acc[i], other[i])
		} else {
			acc[i] = op.F(other[i], acc[i])
		}
	}
}

// reduceRecursiveDoubling: fold the ranks above the largest power of
// two into the lower block, butterfly within the power-of-two block,
// then send results back out to the folded ranks.
func (c *Comm) reduceRecursiveDoubling(acc []float64, op ReduceOp) {
	p, r := c.P(), c.Rank()
	pow2 := 1
	for pow2*2 <= p {
		pow2 *= 2
	}
	rem := p - pow2
	// Fold: ranks pow2..p-1 send to r-pow2 and wait for the result.
	if r >= pow2 {
		c.send(r-pow2, acc)
		res := c.recv(r - pow2)
		copy(acc, res)
		putBuf(res)
		return
	}
	if r < rem {
		upper := c.recv(r + pow2)
		combineInto(acc, upper, op, true) // r < r+pow2
		putBuf(upper)
	}
	// Butterfly among ranks [0, pow2).
	for mask := 1; mask < pow2; mask <<= 1 {
		partner := r ^ mask
		c.send(partner, acc)
		// The partner's message does not depend on ours, so our receive
		// may complete without ever blocking (and thus without the
		// automatic pre-block flush): push our half of the exchange now.
		c.flush()
		other := c.recv(partner)
		combineInto(acc, other, op, r < partner)
		putBuf(other)
	}
	// Unfold.
	if r < rem {
		c.send(r+pow2, acc)
		c.flush()
	}
}

// reduceAllToOne: rank 0 receives every partial in rank order, combines
// them left to right (the same order as summing the block partials
// sequentially), and broadcasts the result with direct sends.
func (c *Comm) reduceAllToOne(acc []float64, op ReduceOp) {
	p, r := c.P(), c.Rank()
	if r == 0 {
		for src := 1; src < p; src++ {
			part := c.recv(src)
			combineInto(acc, part, op, true)
			putBuf(part)
		}
		for dst := 1; dst < p; dst++ {
			c.send(dst, acc)
		}
		c.flush()
		return
	}
	c.send(0, acc)
	res := c.recv(0)
	copy(acc, res)
	putBuf(res)
}
