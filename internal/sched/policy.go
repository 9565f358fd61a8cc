package sched

import (
	"fmt"
	"math/rand"
)

// Policy chooses, at each scheduling point, which enabled process
// performs the next action of the interleaving.  enabled is non-empty
// and sorted by process rank; step is the number of actions executed so
// far.  A Policy together with a process network fully determines a
// maximal interleaving, so controlled runs are reproducible.
type Policy interface {
	Name() string
	Pick(enabled []int, step int) int
}

// RoundRobin cycles through the processes, granting each enabled
// process one action in turn.  This is a fair interleaving in the sense
// required by the paper's execution model.
//
// Pick is a pure function of (enabled, step): rotating by the global
// action count visits every enabled rank in turn without carrying
// state, so a round-robin continuation resumed mid-run (e.g. after a
// Replay prefix) picks exactly as it would have had it run from the
// start.
type RoundRobin struct{}

// NewRoundRobin returns a round-robin policy starting at rank 0.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements Policy.
func (r *RoundRobin) Name() string { return "round-robin" }

// Spec returns the policy's PolicySpec form.
func (r *RoundRobin) Spec() string { return "rr" }

// Pick implements Policy.
func (r *RoundRobin) Pick(enabled []int, step int) int {
	return enabled[step%len(enabled)]
}

// Lowest always picks the lowest-ranked enabled process: process 0 runs
// until it blocks or finishes, then process 1, and so on.  Combined
// with exchange operations this reproduces the sequential
// simulated-parallel ordering of Figure 1 (all of P0's sends, then
// P1's, then the receives as they become enabled).
type Lowest struct{}

// Name implements Policy.
func (Lowest) Name() string { return "lowest" }

// Spec returns the policy's PolicySpec form.
func (Lowest) Spec() string { return "lowest" }

// Pick implements Policy.
func (Lowest) Pick(enabled []int, step int) int { return enabled[0] }

// Highest always picks the highest-ranked enabled process — an
// adversarial mirror image of Lowest.
type Highest struct{}

// Name implements Policy.
func (Highest) Name() string { return "highest" }

// Spec returns the policy's PolicySpec form.
func (Highest) Spec() string { return "highest" }

// Pick implements Policy.
func (Highest) Pick(enabled []int, step int) int { return enabled[len(enabled)-1] }

// Random picks uniformly at random among enabled processes using a
// deterministic seeded generator, so each seed is a reproducible
// interleaving.
type Random struct {
	rng  *rand.Rand
	seed int64
}

// NewRandom returns a seeded random policy.
func NewRandom(seed int64) *Random {
	return &Random{rng: rand.New(rand.NewSource(seed)), seed: seed}
}

// Name implements Policy.
func (r *Random) Name() string { return "random" }

// Spec returns the policy's PolicySpec form, preserving the seed.
func (r *Random) Spec() string { return fmt.Sprintf("rand:%d", r.seed) }

// Seed returns the seed the policy was built with.
func (r *Random) Seed() int64 { return r.seed }

// Pick implements Policy.
func (r *Random) Pick(enabled []int, step int) int {
	return enabled[r.rng.Intn(len(enabled))]
}

// Alternating switches to a different enabled process at every action
// when possible, maximising context switches — a stress order for
// interleaving-sensitivity.
type Alternating struct {
	last int
}

// NewAlternating returns an alternating policy.
func NewAlternating() *Alternating { return &Alternating{last: -1} }

// Name implements Policy.
func (a *Alternating) Name() string { return "alternating" }

// Spec returns the policy's PolicySpec form.
func (a *Alternating) Spec() string { return "alt" }

// Pick implements Policy.
func (a *Alternating) Pick(enabled []int, step int) int {
	for _, e := range enabled {
		if e != a.last {
			a.last = e
			return e
		}
	}
	a.last = enabled[0]
	return enabled[0]
}

// LIFO always picks the process that became enabled most recently — a
// stack discipline, and the adversarial mirror image of RoundRobin's
// fairness: a process that has been runnable the longest is starved
// until nothing newer remains.  The interleaving is still maximal
// (some enabled process always runs), so by Theorem 1 the final state
// must match every other policy's; what LIFO stresses is the queue
// growth and wake-up order of freshly unblocked processes, which the
// fair policies never exercise.  Newly enabled ties are broken towards
// the highest rank.
type LIFO struct {
	seen map[int]int  // rank -> step at which it (re-)entered the enabled set
	prev map[int]bool // enabled set at the previous scheduling point
}

// NewLIFO returns a most-recently-enabled policy.
func NewLIFO() *LIFO {
	return &LIFO{seen: map[int]int{}, prev: map[int]bool{}}
}

// Name implements Policy.
func (l *LIFO) Name() string { return "lifo" }

// Spec returns the policy's PolicySpec form.
func (l *LIFO) Spec() string { return "lifo" }

// Pick implements Policy.
func (l *LIFO) Pick(enabled []int, step int) int {
	for _, e := range enabled {
		if !l.prev[e] {
			l.seen[e] = step // newly enabled since the last pick
		}
	}
	for r := range l.prev {
		delete(l.prev, r)
	}
	best := enabled[0]
	for _, e := range enabled {
		l.prev[e] = true
		// >= breaks same-step ties towards the highest rank, so the
		// very first pick is already the Highest-adversarial corner.
		if l.seen[e] >= l.seen[best] {
			best = e
		}
	}
	return best
}

// DefaultPolicies returns a representative family of interleaving
// policies, for running one network under many interleavings or
// exploring it under many continuations (cmd/determinacy cross-checks
// every determinate network under DefaultPolicies(1)): deterministic extremes
// (lowest, highest, most-recently-enabled), fair rotation,
// alternation, and several random seeds.  The family is built from
// PolicySpec strings so the specs stay the single source of truth for
// how each member is constructed.
func DefaultPolicies(randomSeeds int) []Policy {
	specs := []string{"lowest", "highest", "lifo", "rr", "alt"}
	for s := 0; s < randomSeeds; s++ {
		specs = append(specs, fmt.Sprintf("rand:%d", s+1))
	}
	ps := make([]Policy, 0, len(specs))
	for _, spec := range specs {
		p, err := ParsePolicy(spec)
		if err != nil {
			panic("sched: DefaultPolicies: " + err.Error()) // specs above are static and valid
		}
		ps = append(ps, p)
	}
	return ps
}
