// Command determinacy is the Theorem 1 checker.  It explores the
// schedules of every registered process network — dynamic partial-order
// reduction over the controlled-execution seam — from the didactic
// demos to the paper's Table 1 program at P = 8.  Premise-respecting
// networks reduce to one schedule under channel dependence, are
// explored once per continuation of sched.DefaultPolicies(1), and are
// certified determinate when every exploration reaches one final
// state; shared-memory violations are found automatically, shrunk to
// minimal forced-pick prefixes, and written as replayable artifacts;
// deadlocks are reported as failures.
//
// Usage:
//
//	determinacy                     explore every registered network
//	determinacy -network table1     explore one network
//	determinacy -network racy -minimize -artifact div.json
//	                                find the racy demo's divergence, shrink
//	                                it, and save a replayable artifact
//	determinacy -replay div.json    re-execute a recorded divergence and
//	                                verify it reproduces bitwise
//	determinacy -mode full -max-schedules 500
//	                                override the dependence mode / bound
//	                                the exploration
package main

import (
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"

	"repro/internal/explore"
	"repro/internal/farm"
	"repro/internal/fdtd"
	"repro/internal/grid"
	"repro/internal/mesh"
	"repro/internal/sched"
)

func main() {
	networkName := flag.String("network", "all", "network to explore (see the default output for names)")
	modeStr := flag.String("mode", "", "dependence mode: channel|steps|step-tags|full (default: each network's own)")
	maxSchedules := flag.Int("max-schedules", 0, "bound on completed schedules per network (0 = exhaustive)")
	minimize := flag.Bool("minimize", false, "ddmin-shrink the first divergence found to a minimal schedule")
	artifactPath := flag.String("artifact", "", "write the minimized divergence to this file as a replayable artifact")
	contSpec := flag.String("continue", "lowest", "policy spec completing each run past its forced prefix (first of a determinate network's cross-check)")
	replayPath := flag.String("replay", "", "replay a recorded divergence artifact and verify it reproduces")
	flag.Parse()

	if *replayPath != "" {
		os.Exit(runReplay(os.Stdout, *replayPath))
	}
	os.Exit(runExplore(os.Stdout, exploreConfig{
		network:      *networkName,
		modeStr:      *modeStr,
		cont:         *contSpec,
		maxSchedules: *maxSchedules,
		minimize:     *minimize,
		artifactPath: *artifactPath,
	}))
}

// exploreConfig is the exploration flag set, bundled for testability.
type exploreConfig struct {
	network      string
	modeStr      string
	cont         string
	maxSchedules int
	minimize     bool
	artifactPath string
}

// expectation is what a correct exploration of a network reports.
type expectation int

const (
	// determinate: the network is certified.
	determinate expectation = iota
	// divergence: the racy demo is correct exactly when the explorer
	// finds its divergence.
	divergence
	// deadlock: the deadlock demo is correct exactly when its reference
	// run deadlocks.
	deadlock
)

// network is one registered process network with its exploration
// closures; the generic element/result types are erased here so the
// registry is a plain slice.
type network struct {
	name, desc string
	p          int
	mode       explore.DepMode // default dependence mode
	expect     expectation
	explore    func(mode explore.DepMode, conts []sched.Policy, maxSchedules int) ([]*explore.Report, error)
	minimize   func(mode explore.DepMode, cont string, div explore.Divergence) (*explore.Minimized, error)
	replay     func(mode explore.DepMode, s sched.Schedule) (string, error)
}

// entry builds a registry entry for a concrete network type.
func entry[T, R any](name, desc string, p int, mode explore.DepMode, expect expectation,
	mk func() []sched.Proc[T, R], fp func([]R) string) network {
	opts := func(mode explore.DepMode, cont string, maxSchedules int) explore.Options[R] {
		return explore.Options[R]{Mode: mode, Continue: cont, MaxSchedules: maxSchedules, Fingerprint: fp}
	}
	return network{
		name: name, desc: desc, p: p, mode: mode, expect: expect,
		explore: func(mode explore.DepMode, conts []sched.Policy, maxSchedules int) ([]*explore.Report, error) {
			return explore.Across(mk, opts(mode, "", maxSchedules), conts)
		},
		minimize: func(mode explore.DepMode, cont string, div explore.Divergence) (*explore.Minimized, error) {
			return explore.Minimize(mk, opts(mode, cont, 0), div)
		},
		replay: func(mode explore.DepMode, s sched.Schedule) (string, error) {
			return explore.ReplayOutcome(mk, opts(mode, "", 0), s)
		},
	}
}

// networks is the exploration registry: the didactic demos, the two
// archetype cores, a tiny FDTD instance, and the paper's Table 1
// program at full size.
func networks() []network {
	validMk := func() []sched.Proc[int, int] {
		return []sched.Proc[int, int]{
			func(ctx *sched.Ctx[int]) int { ctx.Send(1, 7); return ctx.Recv(1) },
			func(ctx *sched.Ctx[int]) int { v := ctx.Recv(0); ctx.Send(0, v*v); return v },
		}
	}
	racyMk := func() []sched.Proc[int, int] {
		shared := 0
		mk := func(me int) sched.Proc[int, int] {
			return func(ctx *sched.Ctx[int]) int {
				ctx.Step("w")
				shared = me + 1
				ctx.Step("r")
				return shared
			}
		}
		return []sched.Proc[int, int]{mk(0), mk(1)}
	}
	deadlockMk := func() []sched.Proc[int, int] {
		return []sched.Proc[int, int]{
			func(ctx *sched.Ctx[int]) int { v := ctx.Recv(1); ctx.Send(1, v); return v },
			func(ctx *sched.Ctx[int]) int { v := ctx.Recv(0); ctx.Send(0, v); return v },
		}
	}
	const farmP = 3
	farmMk := func() []sched.Proc[farm.Msg[int], []int] {
		return farm.Procs(7, farmP, farm.DefaultOptions(), func(task int) int { return task * task })
	}
	const meshP = 3
	meshMk := func() []sched.Proc[mesh.Msg, float64] {
		return mesh.Procs(meshP, mesh.DefaultOptions(), func(c *mesh.Comm) float64 {
			v := c.Broadcast(1.5, 0)
			s := c.AllReduce(v*float64(c.Rank()+1), mesh.OpSum)
			c.Barrier()
			return s
		})
	}
	return []network{
		entry("valid", "didactic premise-respecting exchange", 2, explore.DepFull, determinate, validMk, nil),
		entry("racy", "didactic shared-memory violation", 2, explore.DepSteps, divergence, racyMk, nil),
		entry("deadlock", "didactic receive-before-send cycle", 2, explore.DepFull, deadlock, deadlockMk, nil),
		entry("farm", "task-farm archetype core (7 tasks, cyclic)", farmP, explore.DepChannel, determinate, farmMk, nil),
		entry("mesh", "mesh collectives (broadcast+allreduce+barrier)", meshP, explore.DepChannel, determinate, meshMk, nil),
		fdtdEntry("fdtd", "FDTD archetype program, tiny instance", fdtdSpecTiny(), 2),
		fdtdEntry("table1", "FDTD archetype program, the paper's Table 1 (33^3, 128 steps, Version C)", fdtd.SpecTable1(), 8),
	}
}

// fdtdEntry registers the archetype FDTD program for spec on p
// processes, explored under channel dependence and compared bitwise.
func fdtdEntry(name, desc string, spec fdtd.Spec, p int) network {
	opt := fdtd.DefaultOptions()
	body, err := fdtd.SPMD(spec, p, opt)
	if err != nil {
		panic(err) // the registered specs are constants: only a bug can reject one
	}
	mk := func() []sched.Proc[mesh.Msg, *fdtd.Result] { return mesh.Procs(p, opt.Mesh, body) }
	return entry(name, desc, p, explore.DepChannel, determinate, mk, fdtdFingerprint)
}

// fdtdSpecTiny is a minimal Version A instance: big enough to exercise
// the ghost exchanges and reductions, small enough that a single
// controlled run stays in the thousands of actions.
func fdtdSpecTiny() fdtd.Spec {
	return fdtd.Spec{
		NX: 6, NY: 4, NZ: 4,
		Steps: 2,
		DT:    0.5,
		Source: fdtd.SourceSpec{
			I: 3, J: 2, K: 2,
			Amplitude: 1, Delay: 1, Width: 1,
		},
		Probe: [3]int{4, 2, 2},
	}
}

// fdtdFingerprint hashes every rank's final fields, probe, and far
// field bitwise (Float64bits), so equal fingerprints mean bitwise-equal
// final states.
func fdtdFingerprint(finals []*fdtd.Result) string {
	h := fnv.New64a()
	var buf [8]byte
	addF64 := func(vs []float64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	for _, r := range finals {
		if r == nil {
			h.Write([]byte{0xff})
			continue
		}
		for _, g := range []*grid.G3{r.Ex, r.Ey, r.Ez, r.Hx, r.Hy, r.Hz} {
			if g != nil {
				addF64(g.Data())
			}
		}
		addF64(r.Probe)
		addF64(r.FarA)
		addF64(r.FarF)
	}
	return fmt.Sprintf("fdtd:%016x", h.Sum64())
}

func findNetwork(name string) (network, bool) {
	for _, n := range networks() {
		if n.name == name {
			return n, true
		}
	}
	return network{}, false
}

// runExplore is DPOR over one or all registered networks, with
// optional minimization and artifact output.  Returns the process exit
// code: 0 iff every explored network met its expectation.
func runExplore(w io.Writer, cfg exploreConfig) int {
	var nets []network
	if cfg.network == "all" {
		nets = networks()
	} else {
		n, ok := findNetwork(cfg.network)
		if !ok {
			fmt.Fprintf(w, "determinacy: unknown network %q; registered networks:\n", cfg.network)
			for _, n := range networks() {
				fmt.Fprintf(w, "  %-10s %s\n", n.name, n.desc)
			}
			return 2
		}
		nets = []network{n}
	}
	if cfg.artifactPath != "" && len(nets) != 1 {
		fmt.Fprintf(w, "determinacy: -artifact requires a single -network\n")
		return 2
	}

	cont, err := sched.ParsePolicy(cfg.cont)
	if err != nil {
		fmt.Fprintf(w, "determinacy: %v\n", err)
		return 2
	}
	// A network expected determinate is explored once per continuation
	// of the cross-check family, so its certificate compares the final
	// states of that many different interleavings.
	crossCheck := []sched.Policy{cont}
	for _, pol := range sched.DefaultPolicies(1) {
		if sched.PolicySpec(pol) != cfg.cont {
			crossCheck = append(crossCheck, pol)
		}
	}

	code := 0
	for _, n := range nets {
		mode := n.mode
		if cfg.modeStr != "" {
			var err error
			if mode, err = explore.ParseMode(cfg.modeStr); err != nil {
				fmt.Fprintf(w, "determinacy: %v\n", err)
				return 2
			}
		}
		fmt.Fprintf(w, "--- explore %s: %s ---\n", n.name, n.desc)
		conts := []sched.Policy{cont}
		if n.expect == determinate {
			conts = crossCheck
		}
		reps, err := n.explore(mode, conts, cfg.maxSchedules)
		if reps == nil {
			fmt.Fprintf(w, "determinacy: explore %s: %v\n", n.name, err)
			return 2
		}
		rep := reps[0]
		fmt.Fprintln(w, rep.Summary())

		var ok bool
		switch n.expect {
		case divergence:
			if ok = len(rep.Divergences) > 0; ok {
				fmt.Fprintf(w, "expected violation FOUND: %d diverging schedule(s), e.g. picks %v -> %s\n",
					len(rep.Divergences), rep.Divergences[0].Picks, rep.Divergences[0].Outcome)
			} else {
				fmt.Fprintf(w, "FAIL: expected a divergence in %s but the exploration found none\n", n.name)
			}
		case deadlock:
			if ok = errors.Is(rep.Err, sched.ErrDeadlock); ok {
				fmt.Fprintln(w, "expected deadlock FOUND: the reference run deadlocked, so nothing is certified")
			} else {
				fmt.Fprintf(w, "FAIL: expected %s to deadlock, but its reference run ended with %v\n", n.name, rep.Err)
			}
		default:
			if ok = err == nil; ok {
				specs := make([]string, len(reps))
				for i, r := range reps {
					specs[i] = r.Continue
				}
				fmt.Fprintf(w, "certified: the explorations under %d continuations %v reach one final state\n",
					len(reps), specs)
			} else {
				fmt.Fprintf(w, "FAIL: %s expected determinate: %v\n", n.name, err)
				for _, d := range rep.Divergences {
					fmt.Fprintf(w, "  diverging picks %v -> %s\n", d.Picks, d.Outcome)
				}
			}
		}
		if !ok {
			code = 1
		}

		if cfg.minimize && len(rep.Divergences) > 0 {
			m, err := n.minimize(mode, cfg.cont, rep.Divergences[0])
			if err != nil {
				fmt.Fprintf(w, "determinacy: minimize %s: %v\n", n.name, err)
				return 2
			}
			fmt.Fprint(w, m.Format())
			if cfg.artifactPath != "" {
				a := m.Artifact(n.name, n.p, mode, cfg.cont)
				if err := a.Save(cfg.artifactPath); err != nil {
					fmt.Fprintf(w, "determinacy: save artifact: %v\n", err)
					return 2
				}
				fmt.Fprintf(w, "artifact written to %s (replay with: determinacy -replay %s)\n",
					cfg.artifactPath, cfg.artifactPath)
			}
		}
	}
	return code
}

// runReplay re-executes a recorded divergence
// artifact and verifies the divergent final state reproduces bitwise.
func runReplay(w io.Writer, path string) int {
	a, err := explore.LoadArtifact(path)
	if err != nil {
		fmt.Fprintf(w, "determinacy: %v\n", err)
		return 2
	}
	n, ok := findNetwork(a.Network)
	if !ok {
		fmt.Fprintf(w, "determinacy: artifact names unknown network %q\n", a.Network)
		return 2
	}
	if n.p != a.P {
		fmt.Fprintf(w, "determinacy: artifact recorded P=%d but network %q now has P=%d\n", a.P, a.Network, n.p)
		return 2
	}
	mode, err := explore.ParseMode(a.Mode)
	if err != nil {
		fmt.Fprintf(w, "determinacy: %v\n", err)
		return 2
	}
	fmt.Fprintf(w, "replaying %s: network %s, %d forced pick(s), continuation %q\n",
		path, a.Network, len(a.Schedule.Picks), a.Schedule.Continue)
	for _, l := range a.Trace {
		fmt.Fprintf(w, "  %s\n", l)
	}
	got, err := n.replay(mode, a.Schedule)
	if err != nil {
		fmt.Fprintf(w, "determinacy: replay: %v\n", err)
		return 2
	}
	if got != a.Outcome {
		fmt.Fprintf(w, "FAIL: replay reached %s, artifact recorded %s\n", got, a.Outcome)
		return 1
	}
	fmt.Fprintf(w, "reproduced: %s (reference was %s)\n", got, a.Reference)
	return 0
}
