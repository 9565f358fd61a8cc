package explore

import "fmt"

// node is one depth of the schedule tree currently being explored: the
// scheduling point's recorded state plus the DPOR bookkeeping — which
// alternative picks must still be tried (backtrack), which are fully
// explored (done), and what slept when the point was reached.
type node struct {
	pt        point
	curPick   int // pick taken on the path currently below this node
	done      map[int]bool
	backtrack map[int]bool
}

func newNode(pt point) *node {
	return &node{
		pt:        pt,
		curPick:   pt.pick,
		done:      map[int]bool{pt.pick: true},
		backtrack: map[int]bool{pt.pick: true},
	}
}

// nextCandidate returns the smallest rank that must still be explored
// at this node: in the backtrack set, not already explored, and not
// sleeping (a sleeping candidate would re-enter a covered class — the
// cheap form of sleep-set blocking, cut before the run is even
// spawned).
func (n *node) nextCandidate(p int) (int, bool) {
	for r := 0; r < p; r++ {
		if !n.backtrack[r] || n.done[r] {
			continue
		}
		if _, asleep := n.pt.sleep[r]; asleep {
			continue
		}
		return r, true
	}
	return 0, false
}

// branchSleep is the sleep set a new branch at this node starts with:
// whatever slept when the node was reached, plus every pick whose
// subtree is already fully explored (the sleep-set rule: once a's
// subtree is done, any schedule running a here again is redundant).
func (n *node) branchSleep(cand int) map[int]opInfo {
	sleep := make(map[int]opInfo, len(n.pt.sleep)+len(n.done))
	for q, op := range n.pt.sleep {
		sleep[q] = op
	}
	for q := range n.done {
		if q == cand {
			continue
		}
		for i, r := range n.pt.enabled {
			if r == q {
				sleep[q] = n.pt.ops[i]
			}
		}
	}
	return sleep
}

// driverOpts parameterises the non-generic DPOR loop.
type driverOpts struct {
	mode         DepMode
	contSpec     string
	maxSchedules int
}

// exploreAll is the DPOR engine: depth-first over the schedule tree,
// race analysis after every completed run inserting backtrack points
// Flanagan–Godefroid style, sleep sets inherited into every branch.
func exploreAll(run runner, p int, opt *driverOpts) (*Report, error) {
	rep := &Report{P: p, Mode: opt.mode, Continue: opt.contSpec}
	if p == 0 {
		rep.Schedules = 1
		return rep, nil
	}

	first, err := run(nil, nil)
	if err != nil {
		return nil, err
	}
	rep.Reference = first.outcome
	rep.Err = first.err
	rep.Schedules = 1

	stack := make([]*node, 0, len(first.points))
	for _, pt := range first.points {
		stack = append(stack, newNode(pt))
	}
	insertBacktracks(rep, stack, first)

	for len(stack) > 0 {
		d := len(stack) - 1
		n := stack[d]
		cand, ok := n.nextCandidate(p)
		if !ok {
			stack = stack[:d] // node exhausted; its parent owns the rest
			continue
		}
		if opt.maxSchedules > 0 && rep.Schedules >= opt.maxSchedules {
			rep.Truncated = true
			break
		}

		prefix := make([]int, 0, d+1)
		for _, m := range stack[:d] {
			prefix = append(prefix, m.curPick)
		}
		prefix = append(prefix, cand)
		sleep := n.branchSleep(cand)
		n.done[cand] = true
		n.curPick = cand

		rr, err := run(prefix, sleep)
		if err != nil {
			return nil, err
		}
		if rr.sleepBlockedAt >= 0 {
			// The run wandered into territory fully covered by an
			// earlier branch: count it and throw it away.
			rep.SleepBlocked++
			continue
		}
		if rr.infeasible {
			// The forced prefix was recorded on this very tree path, so
			// a disabled forced pick means the network's structure
			// itself is schedule-dependent — report it as a divergence
			// rather than silently exploring a different branch.
			rep.Divergences = append(rep.Divergences, Divergence{
				Picks:   prefix,
				Outcome: "infeasible: " + rr.outcome,
			})
			continue
		}
		rep.Schedules++
		if rr.outcome != rep.Reference {
			rep.Divergences = append(rep.Divergences, Divergence{
				Picks:   rr.picks(),
				Outcome: rr.outcome,
			})
		}

		// Graft the new run's suffix onto the shared prefix.
		if len(rr.points) < d+1 {
			return nil, fmt.Errorf("explore: branch run executed %d actions, shorter than its %d-pick prefix", len(rr.points), d+1)
		}
		stack = stack[:d+1]
		for _, pt := range rr.points[d+1:] {
			stack = append(stack, newNode(pt))
		}
		insertBacktracks(rep, stack, rr)
	}
	return rep, nil
}

// insertBacktracks runs the race analysis on a completed run and adds
// the backtrack points its races demand.  For a race (i, j) the
// reversal must be attempted at i's scheduling point: by the process
// that performed j if it was enabled there, otherwise conservatively
// by every enabled process (one of them leads towards j).
func insertBacktracks(rep *Report, stack []*node, rr *runResult) {
	acts := make([]opInfo, len(rr.points))
	for k := range rr.points {
		acts[k] = rr.points[k].act
	}
	races := analyze(acts, rep.P, rep.Mode)
	rep.Races += len(races)
	for _, rc := range races {
		nd := stack[rc.i]
		pj := acts[rc.j].Rank
		if containsRank(nd.pt.enabled, pj) {
			nd.backtrack[pj] = true
			continue
		}
		for _, e := range nd.pt.enabled {
			nd.backtrack[e] = true
		}
	}
}

func containsRank(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
