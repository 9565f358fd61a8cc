// refinement walks a small program through the paper's full stepwise-
// refinement methodology, with every artifact executable:
//
//  1. the original sequential program (a 1-D smoothing iteration);
//  2. its sequential simulated-parallel (SSP) version, expressed in the
//     formal ssp.Program model — data partitioned into simulated
//     address spaces, computation restructured into local blocks
//     alternating with data-exchange operations, and the three
//     exchange restrictions of §2.2 validated mechanically;
//  3. the parallel program obtained by the mechanical Theorem 1
//     transformation, executed under several distinct interleavings,
//     and its schedule space explored for determinacy.
//
// Each stage is checked for exact equality with its predecessor.
//
// Run with: go run ./examples/refinement
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/sched"
	"repro/internal/ssp"
)

const (
	cells = 12 // global 1-D grid
	procs = 3
	steps = 5
)

// sequential is the original program: repeated three-point smoothing
// of a 1-D array with fixed zero boundaries.
func sequential() []float64 {
	u := make([]float64, cells)
	for i := range u {
		u[i] = float64(i * i)
	}
	next := make([]float64, cells)
	for s := 0; s < steps; s++ {
		for i := 0; i < cells; i++ {
			left, right := 0.0, 0.0
			if i > 0 {
				left = u[i-1]
			}
			if i < cells-1 {
				right = u[i+1]
			}
			next[i] = 0.25*left + 0.5*u[i] + 0.25*right
		}
		u, next = next, u
	}
	return u
}

// sspProgram builds the simulated-parallel version: the array is
// partitioned into contiguous blocks, each simulated process holds its
// block plus two ghost scalars, and each step is a local-computation
// block followed by a ghost-exchange data-exchange operation.
func sspProgram() (*ssp.Program, []*ssp.Space) {
	per := cells / procs
	spaces := make([]*ssp.Space, procs)
	for r := 0; r < procs; r++ {
		s := ssp.NewSpace()
		block := make([]float64, per)
		for i := range block {
			g := r*per + i
			block[i] = float64(g * g)
		}
		s.Vectors["u"] = block
		s.Vectors["next"] = make([]float64, per)
		s.Scalars["ghostLo"] = 0
		s.Scalars["ghostHi"] = 0
		spaces[r] = s
	}

	exchange := func(label string) ssp.Exchange {
		var as []ssp.Assignment
		for r := 0; r < procs; r++ {
			// ghostLo_r := last element of the left neighbour (0 at the edge).
			if r > 0 {
				as = append(as, ssp.Copy(r, ssp.Ref{Name: "ghostLo", Index: ssp.ScalarIndex},
					r-1, ssp.Ref{Name: "u", Index: per - 1}))
			} else {
				as = append(as, ssp.Assignment{
					DstProc: r, Dst: ssp.Ref{Name: "ghostLo", Index: ssp.ScalarIndex},
					SrcProc: r, Reads: []ssp.Ref{{Name: "u", Index: 0}},
					Compute: func([]float64) float64 { return 0 },
				})
			}
			if r < procs-1 {
				as = append(as, ssp.Copy(r, ssp.Ref{Name: "ghostHi", Index: ssp.ScalarIndex},
					r+1, ssp.Ref{Name: "u", Index: 0}))
			} else {
				as = append(as, ssp.Assignment{
					DstProc: r, Dst: ssp.Ref{Name: "ghostHi", Index: ssp.ScalarIndex},
					SrcProc: r, Reads: []ssp.Ref{{Name: "u", Index: 0}},
					Compute: func([]float64) float64 { return 0 },
				})
			}
		}
		return ssp.Exchange{Label: label, Assignments: as}
	}

	smooth := func(p int, s *ssp.Space) {
		u := s.Vectors["u"]
		next := s.Vectors["next"]
		for i := range u {
			left := s.Scalars["ghostLo"]
			if i > 0 {
				left = u[i-1]
			}
			right := s.Scalars["ghostHi"]
			if i < len(u)-1 {
				right = u[i+1]
			}
			next[i] = 0.25*left + 0.5*u[i] + 0.25*right
		}
		copy(u, next)
	}

	var phases []ssp.Phase
	for s := 0; s < steps; s++ {
		phases = append(phases, exchange(fmt.Sprintf("ghosts@%d", s)))
		blocks := make([]func(int, *ssp.Space), procs)
		for r := range blocks {
			blocks[r] = smooth
		}
		phases = append(phases, ssp.Local{Label: fmt.Sprintf("smooth@%d", s), Blocks: blocks})
	}
	return &ssp.Program{N: procs, Phases: phases}, spaces
}

func flatten(spaces []*ssp.Space) []float64 {
	var out []float64
	for _, s := range spaces {
		out = append(out, s.Vectors["u"]...)
	}
	return out
}

func main() {
	prog, init := sspProgram()
	fmt.Println("validating the SSP program against the three exchange restrictions...")
	if err := prog.Validate(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("  valid: every exchange has unique targets, single-partition sides,")
	fmt.Println("  and assigns at least one value to every process")

	uncombined, combined := prog.MessageCounts()
	fmt.Printf("  lowering would send %d messages (%d with combining)\n\n", uncombined, combined)

	pipeline := &core.Pipeline[[]float64]{
		Name: "1-D smoothing",
		Equal: func(a, b []float64) bool {
			if len(a) != len(b) {
				return false
			}
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
			return true
		},
		Stages: []core.Stage[[]float64]{
			{Name: "original sequential", Kind: core.Sequential,
				Run: func() ([]float64, error) { return sequential(), nil }},
			{Name: "simulated-parallel (SSP)", Kind: core.SimulatedParallel, Exact: true,
				Run: func() ([]float64, error) {
					spaces := ssp.CloneSpaces(init)
					if err := prog.RunSequential(spaces); err != nil {
						return nil, err
					}
					return flatten(spaces), nil
				}},
			{Name: "parallel (round-robin schedule)", Kind: core.Parallel, Exact: true,
				Run: func() ([]float64, error) {
					procsFns := prog.Procs(init, ssp.LowerOptions{CombineMessages: true})
					spaces, err := sched.RunControlled(procsFns, sched.NewRoundRobin(), sched.Options[ssp.Message]{})
					if err != nil {
						return nil, err
					}
					return flatten(spaces), nil
				}},
			{Name: "parallel (goroutines)", Kind: core.Parallel, Exact: true,
				Run: func() ([]float64, error) {
					procsFns := prog.Procs(init, ssp.LowerOptions{CombineMessages: true})
					spaces, err := sched.RunConcurrent(procsFns, sched.Options[ssp.Message]{})
					if err != nil {
						return nil, err
					}
					return flatten(spaces), nil
				}},
		},
	}
	rep, err := pipeline.Verify()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rep)
	if !rep.OK() {
		log.Fatal("refinement violated")
	}

	fmt.Println("\nexploring the parallel program's schedule space under several continuations...")
	reps, err := explore.Across(func() []sched.Proc[ssp.Message, *ssp.Space] {
		return prog.Procs(init, ssp.LowerOptions{})
	}, explore.Options[*ssp.Space]{}, sched.DefaultPolicies(1))
	for _, r := range reps {
		fmt.Printf("continue %-7s %s\n", r.Continue, r.Summary())
	}
	if err != nil {
		log.Fatalf("parallel program not determinate: %v", err)
	}
}
