// Command determinacy is the Theorem 1 checker.  Its original mode
// samples a handful of scheduling policies and compares final states
// (the empirical check); the -explore mode upgrades that to systematic
// schedule exploration — dynamic partial-order reduction over the
// controlled-execution seam — which for small networks provably covers
// the reduced schedule space, finds shared-memory violations
// automatically, shrinks them to minimal forced-pick prefixes, and
// writes them as replayable artifacts.
//
// Usage:
//
//	determinacy                     empirical check of the FDTD archetype program
//	determinacy -demo               also run the didactic demo networks
//	determinacy -p 4                process count for the FDTD check
//	determinacy -explore            DPOR-explore every registered network
//	determinacy -explore -network racy -minimize -artifact div.json
//	                                find the racy demo's divergence, shrink
//	                                it, and save a replayable artifact
//	determinacy -replay div.json    re-execute a recorded divergence and
//	                                verify it reproduces bitwise
//	determinacy -explore -mode full -max-schedules 500
//	                                override the dependence mode / bound
//	                                the exploration
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/farm"
	"repro/internal/fdtd"
	"repro/internal/grid"
	"repro/internal/harness"
	"repro/internal/mesh"
	"repro/internal/sched"
)

func main() {
	p := flag.Int("p", 3, "process count for the FDTD determinacy check")
	reps := flag.Int("reps", 3, "free-running parallel repetitions")
	demo := flag.Bool("demo", false, "also run didactic demo networks")
	doExplore := flag.Bool("explore", false, "systematically explore schedules (DPOR) instead of sampling policies")
	networkName := flag.String("network", "all", "network to explore (see -explore output for names)")
	modeStr := flag.String("mode", "", "dependence mode: channel|steps|step-tags|full (default: each network's own)")
	maxSchedules := flag.Int("max-schedules", 0, "bound on completed schedules per network (0 = exhaustive)")
	minimize := flag.Bool("minimize", false, "ddmin-shrink the first divergence found to a minimal schedule")
	artifactPath := flag.String("artifact", "", "write the minimized divergence to this file as a replayable artifact")
	contSpec := flag.String("continue", "lowest", "policy spec completing each run past its forced prefix")
	replayPath := flag.String("replay", "", "replay a recorded divergence artifact and verify it reproduces")
	flag.Parse()

	switch {
	case *replayPath != "":
		os.Exit(runReplay(os.Stdout, *replayPath))
	case *doExplore:
		os.Exit(runExplore(os.Stdout, exploreConfig{
			network:      *networkName,
			modeStr:      *modeStr,
			cont:         *contSpec,
			maxSchedules: *maxSchedules,
			minimize:     *minimize,
			artifactPath: *artifactPath,
		}))
	default:
		os.Exit(runEmpirical(os.Stdout, *p, *reps, *demo))
	}
}

// exploreConfig is the -explore flag set, bundled for testability.
type exploreConfig struct {
	network      string
	modeStr      string
	cont         string
	maxSchedules int
	minimize     bool
	artifactPath string
}

// network is one registered process network with its exploration
// closures; the generic element/result types are erased here so the
// registry is a plain slice.
type network struct {
	name, desc string
	p          int
	mode       explore.DepMode // default dependence mode
	// expectDivergence flips the success criterion: the racy demo is
	// correct exactly when the explorer finds its divergence.
	expectDivergence bool
	explore          func(mode explore.DepMode, cont string, maxSchedules int) (*explore.Report, error)
	minimize         func(mode explore.DepMode, cont string, div explore.Divergence) (*explore.Minimized, error)
	replay           func(mode explore.DepMode, s sched.Schedule) (string, error)
}

// entry builds a registry entry for a concrete network type.
func entry[T, R any](name, desc string, p int, mode explore.DepMode, expectDiv bool,
	mk func() []sched.Proc[T, R], fp func([]R) string) network {
	opts := func(mode explore.DepMode, cont string, maxSchedules int) explore.Options[R] {
		return explore.Options[R]{Mode: mode, Continue: cont, MaxSchedules: maxSchedules, Fingerprint: fp}
	}
	return network{
		name: name, desc: desc, p: p, mode: mode, expectDivergence: expectDiv,
		explore: func(mode explore.DepMode, cont string, maxSchedules int) (*explore.Report, error) {
			return explore.Run(mk, opts(mode, cont, maxSchedules))
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
// archetype cores, and a small FDTD instance.
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
	const fdtdP = 2
	spec := fdtdSpecTiny()
	fdtdOpt := fdtd.DefaultOptions()
	fdtdBody, err := fdtd.SPMD(spec, fdtdP, fdtdOpt)
	if err != nil {
		panic(err) // fdtdSpecTiny is a constant: only a bug can reject it
	}
	fdtdMk := func() []sched.Proc[mesh.Msg, *fdtd.Result] {
		return mesh.Procs(fdtdP, fdtdOpt.Mesh, fdtdBody)
	}
	return []network{
		entry("valid", "didactic premise-respecting exchange", 2, explore.DepFull, false, validMk, nil),
		entry("racy", "didactic shared-memory violation", 2, explore.DepSteps, true, racyMk, nil),
		entry("deadlock", "didactic receive-before-send cycle", 2, explore.DepFull, false, deadlockMk, nil),
		entry("farm", "task-farm archetype core (7 tasks, cyclic)", farmP, explore.DepChannel, false, farmMk, nil),
		entry("mesh", "mesh collectives (broadcast+allreduce+barrier)", meshP, explore.DepChannel, false, meshMk, nil),
		entry("fdtd", "FDTD archetype program, tiny instance", fdtdP, explore.DepChannel, false, fdtdMk, fdtdFingerprint),
	}
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

// runExplore is the -explore mode: DPOR over one or all registered
// networks, optional minimization and artifact output.  Returns the
// process exit code: 0 iff every explored network met its expectation
// (determinate, or — for networks registered with expectDivergence —
// at least one divergence found).
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
		rep, err := n.explore(mode, cfg.cont, cfg.maxSchedules)
		if err != nil {
			fmt.Fprintf(w, "determinacy: explore %s: %v\n", n.name, err)
			return 2
		}
		fmt.Fprintln(w, rep.Summary())

		ok := rep.Determinate() != n.expectDivergence
		if n.expectDivergence {
			if ok {
				fmt.Fprintf(w, "expected violation FOUND: %d diverging schedule(s), e.g. picks %v -> %s\n",
					len(rep.Divergences), rep.Divergences[0].Picks, rep.Divergences[0].Outcome)
			} else {
				fmt.Fprintf(w, "FAIL: expected a divergence in %s but the exploration found none\n", n.name)
			}
		} else if !ok {
			fmt.Fprintf(w, "FAIL: %s expected determinate\n", n.name)
			for _, d := range rep.Divergences {
				fmt.Fprintf(w, "  diverging picks %v -> %s\n", d.Picks, d.Outcome)
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

// runReplay is the -replay mode: re-execute a recorded divergence
// artifact and verify the divergent final state reproduces bitwise.
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

// runEmpirical is the original policy-sampling mode.
func runEmpirical(w io.Writer, p, reps int, demo bool) int {
	rep, err := harness.RunDeterminacy(fdtd.SpecSmall(), p, reps)
	if err != nil {
		fmt.Fprintf(w, "determinacy: %v\n", err)
		return 1
	}
	fmt.Fprint(w, rep)
	if !rep.Deterministic() {
		return 1
	}
	if !demo {
		return 0
	}

	fmt.Fprintln(w, "\n--- demo: valid network (premises satisfied) ---")
	valid := func() []sched.Proc[int, int] {
		return []sched.Proc[int, int]{
			func(ctx *sched.Ctx[int]) int { ctx.Send(1, 7); return ctx.Recv(1) },
			func(ctx *sched.Ctx[int]) int { v := ctx.Recv(0); ctx.Send(0, v*v); return v },
		}
	}
	dr, err := core.CheckDeterminacy(valid, core.DeterminacyOptions[int]{CheckTraces: true})
	if err != nil {
		fmt.Fprintf(w, "determinacy: %v\n", err)
		return 1
	}
	fmt.Fprint(w, dr)

	fmt.Fprintln(w, "\n--- demo: premise violation (shared variable) ---")
	racy := func() []sched.Proc[int, int] {
		shared := 0
		return []sched.Proc[int, int]{
			func(ctx *sched.Ctx[int]) int { ctx.Step("w"); shared = 1; ctx.Step("r"); return shared },
			func(ctx *sched.Ctx[int]) int { ctx.Step("w"); shared = 2; ctx.Step("r"); return shared },
		}
	}
	dr, err = core.CheckDeterminacy(racy, core.DeterminacyOptions[int]{
		Policies:       sched.DefaultPolicies(10),
		ConcurrentReps: -1, // controlled runs only: the race is the point
	})
	if err != nil {
		fmt.Fprintf(w, "determinacy: %v\n", err)
		return 1
	}
	fmt.Fprint(w, dr)

	fmt.Fprintln(w, "\n--- demo: deadlocking network (receives precede sends) ---")
	deadlocked := func() []sched.Proc[int, int] {
		return []sched.Proc[int, int]{
			func(ctx *sched.Ctx[int]) int { v := ctx.Recv(1); ctx.Send(1, v); return v },
			func(ctx *sched.Ctx[int]) int { v := ctx.Recv(0); ctx.Send(0, v); return v },
		}
	}
	dr, _ = core.CheckDeterminacy(deadlocked, core.DeterminacyOptions[int]{
		Policies:       []sched.Policy{sched.Lowest{}, sched.Highest{}},
		ConcurrentReps: -1,
	})
	fmt.Fprint(w, dr)
	return 0
}
