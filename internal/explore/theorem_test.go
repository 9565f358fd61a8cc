package explore_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/explore"
	"repro/internal/sched"
	"repro/internal/ssp"
)

// deterministicNet builds a well-formed network: a pipeline of adders.
func deterministicNet() []sched.Proc[int, int] {
	n := 4
	procs := make([]sched.Proc[int, int], n)
	procs[0] = func(ctx *sched.Ctx[int]) int {
		ctx.Send(1, 1)
		return ctx.Recv(n - 1)
	}
	for i := 1; i < n; i++ {
		i := i
		procs[i] = func(ctx *sched.Ctx[int]) int {
			v := ctx.Recv(i - 1)
			ctx.Send((i+1)%n, v+1)
			return v
		}
	}
	return procs
}

// The determinacy checks below run the schedule explorer on the
// networks the methodology produces: the last refinement step, SSP to
// parallel, is the one Theorem 1 justifies, and explore is what checks
// it.

func TestCheckDeterminacyAcceptsValidNetwork(t *testing.T) {
	// Under channel dependence every maximal interleaving of a
	// premise-respecting network is one equivalence class: the
	// permutation equivalence of the Theorem 1 proof.  Each default
	// continuation policy picks a different representative, and all
	// reach the same final state.
	reps, err := explore.Across(deterministicNet, explore.Options[int]{Mode: explore.DepChannel}, sched.DefaultPolicies(3))
	if err != nil {
		t.Fatalf("valid network flagged: %v", err)
	}
	for _, rep := range reps {
		if rep.Schedules != 1 {
			t.Fatalf("want one channel-equivalence class: %s", rep.Summary())
		}
	}
	// The ring is small enough to enumerate every order of its actions.
	full, err := explore.Run(deterministicNet, explore.Options[int]{Mode: explore.DepFull})
	if err != nil {
		t.Fatal(err)
	}
	if !full.Determinate() || full.Reference != reps[0].Reference {
		t.Fatalf("full enumeration: %s, reference %s, want %s", full.Summary(), full.Reference, reps[0].Reference)
	}
	for k := 0; k < 4; k++ {
		got, err := sched.RunConcurrent(deterministicNet(), sched.Options[int]{})
		if err != nil || fmt.Sprint(got) != reps[0].Reference {
			t.Fatalf("concurrent run %d: %v, final states %v, want %s", k, err, got, reps[0].Reference)
		}
	}
}

func TestCheckDeterminacyFlagsSharedMemory(t *testing.T) {
	// Premise violation: both processes race on a shared variable.
	// The controlled scheduler runs one process at a time, so the
	// divergence shows without a data race.
	mk := func() []sched.Proc[int, int] {
		shared := 0
		return []sched.Proc[int, int]{
			func(ctx *sched.Ctx[int]) int { ctx.Step("w"); shared = 1; ctx.Step("r"); return shared },
			func(ctx *sched.Ctx[int]) int { ctx.Step("w"); shared = 2; ctx.Step("r"); return shared },
		}
	}
	rep, err := explore.Run(mk, explore.Options[int]{Mode: explore.DepSteps})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Determinate() || len(rep.Divergences) == 0 {
		t.Fatalf("shared-memory network not flagged: %s", rep.Summary())
	}
	if !strings.Contains(rep.Summary(), "DIVERGENT") {
		t.Fatalf("summary: %s", rep.Summary())
	}
}

func TestCheckDeterminacyFlagsDeadlock(t *testing.T) {
	mk := func() []sched.Proc[int, int] {
		return []sched.Proc[int, int]{
			func(ctx *sched.Ctx[int]) int { return ctx.Recv(1) },
			func(ctx *sched.Ctx[int]) int { return ctx.Recv(0) },
		}
	}
	rep, err := explore.Run(mk, explore.Options[int]{Mode: explore.DepFull})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(rep.Err, sched.ErrDeadlock) {
		t.Fatalf("every schedule deadlocks, want a deadlock error: %s", rep.Summary())
	}
	if rep.Determinate() {
		t.Fatal("deadlocked network must not be reported determinate")
	}
}

func TestCheckDeterminacyOnSSPProgram(t *testing.T) {
	// End-to-end: a valid SSP program's mechanical transformation is
	// determinate under every interleaving.
	spacesInit := make([]*ssp.Space, 3)
	for i := range spacesInit {
		s := ssp.NewSpace()
		s.Scalars["x"] = float64(i)
		s.Scalars["in"] = 0
		spacesInit[i] = s
	}
	prog := &ssp.Program{N: 3, Phases: []ssp.Phase{
		ssp.Local{Label: "c", Blocks: []func(int, *ssp.Space){
			func(p int, s *ssp.Space) { s.Scalars["x"] *= 2 },
			func(p int, s *ssp.Space) { s.Scalars["x"] += 10 },
			func(p int, s *ssp.Space) { s.Scalars["x"] -= 1 },
		}},
		ssp.Exchange{Label: "rot", Assignments: []ssp.Assignment{
			ssp.Copy(0, ssp.Ref{Name: "in", Index: ssp.ScalarIndex}, 2, ssp.Ref{Name: "x", Index: ssp.ScalarIndex}),
			ssp.Copy(1, ssp.Ref{Name: "in", Index: ssp.ScalarIndex}, 0, ssp.Ref{Name: "x", Index: ssp.ScalarIndex}),
			ssp.Copy(2, ssp.Ref{Name: "in", Index: ssp.ScalarIndex}, 1, ssp.Ref{Name: "x", Index: ssp.ScalarIndex}),
		}},
	}}
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	// Each schedule builds its own spaces; the default fingerprint
	// follows the pointers, so equal spaces agree.
	rep, err := explore.Run(func() []sched.Proc[ssp.Message, *ssp.Space] {
		return prog.Procs(spacesInit, ssp.LowerOptions{})
	}, explore.Options[*ssp.Space]{Mode: explore.DepFull})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Determinate() {
		t.Fatalf("SSP-derived network flagged: %s", rep.Summary())
	}
	// And the parallel result matches the sequential SSP execution.
	seq := ssp.CloneSpaces(spacesInit)
	if err := prog.RunSequential(seq); err != nil {
		t.Fatal(err)
	}
	par, err := sched.RunControlled(prog.Procs(spacesInit, ssp.LowerOptions{}),
		sched.Lowest{}, sched.Options[ssp.Message]{})
	if err != nil {
		t.Fatal(err)
	}
	if !ssp.SpacesEqual(par, seq) {
		t.Fatal("parallel != sequential SSP")
	}
}
