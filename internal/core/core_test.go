package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/explore"
	"repro/internal/sched"
	"repro/internal/ssp"
)

func TestPipelineAllExactStagesAgree(t *testing.T) {
	p := &Pipeline[int]{
		Name: "double",
		Stages: []Stage[int]{
			{Name: "original", Kind: Sequential, Run: func() (int, error) { return 42, nil }},
			{Name: "ssp", Kind: SimulatedParallel, Exact: true, Run: func() (int, error) { return 42, nil }},
			{Name: "parallel", Kind: Parallel, Exact: true, Run: func() (int, error) { return 42, nil }},
		},
	}
	rep, err := p.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("pipeline should pass:\n%s", rep)
	}
	if len(rep.Results) != 3 || rep.Results[2] != 42 {
		t.Fatalf("results = %v", rep.Results)
	}
}

func TestPipelineExactMismatchFails(t *testing.T) {
	p := &Pipeline[int]{
		Name: "broken",
		Stages: []Stage[int]{
			{Name: "a", Kind: Sequential, Run: func() (int, error) { return 1, nil }},
			{Name: "b", Kind: SimulatedParallel, Exact: true, Run: func() (int, error) { return 2, nil }},
		},
	}
	rep, err := p.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("exact mismatch must fail the report")
	}
	if !strings.Contains(rep.String(), "MISMATCH") {
		t.Fatalf("report should flag mismatch:\n%s", rep)
	}
}

func TestPipelineNonExactDriftAllowed(t *testing.T) {
	// Models the paper's far-field stage: declared non-exact reordering.
	p := &Pipeline[float64]{
		Name:  "farfield",
		Equal: func(a, b float64) bool { return a == b },
		Stages: []Stage[float64]{
			// Runtime variables: Go constant arithmetic is exact, so the
			// absorption must happen in float64 at run time.
			{Name: "sequential sum", Kind: Sequential, Run: func() (float64, error) {
				big, one := 1e20, 1.0
				return big + one - big, nil // 1.0 absorbed: result 0
			}},
			{Name: "reordered sum", Kind: SimulatedParallel, Exact: false, Run: func() (float64, error) {
				big, one := 1e20, 1.0
				return big - big + one, nil // result 1
			}},
		},
	}
	rep, err := p.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("non-exact drift must not fail:\n%s", rep)
	}
	if rep.Stages[1].EqualToPrev {
		t.Fatal("test premise broken: the sums should actually differ")
	}
	if !strings.Contains(rep.String(), "non-exact") {
		t.Fatalf("report should mention declared non-exactness:\n%s", rep)
	}
}

func TestPipelineStageError(t *testing.T) {
	boom := errors.New("boom")
	p := &Pipeline[int]{
		Name: "err",
		Stages: []Stage[int]{
			{Name: "a", Kind: Sequential, Run: func() (int, error) { return 0, boom }},
			{Name: "b", Kind: Parallel, Exact: true, Run: func() (int, error) { return 0, nil }},
		},
	}
	rep, err := p.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("stage error must fail the report")
	}
	if !errors.Is(rep.Stages[0].Err, boom) {
		t.Fatalf("stage error lost: %v", rep.Stages[0].Err)
	}
}

func TestPipelineEmpty(t *testing.T) {
	p := &Pipeline[int]{Name: "empty"}
	if _, err := p.Verify(); err == nil {
		t.Fatal("empty pipeline should error")
	}
}

func TestPipelineSourceDeltas(t *testing.T) {
	p := &Pipeline[int]{
		Name: "deltas",
		Stages: []Stage[int]{
			{Name: "a", Kind: Sequential, Source: "x = 1\ny = 2\nz = x + y\n",
				Run: func() (int, error) { return 0, nil }},
			{Name: "b", Kind: SimulatedParallel, Exact: true,
				Source: "x = 1\ny = 2\nexchange(y)\nz = x + y\n",
				Run:    func() (int, error) { return 0, nil }},
		},
	}
	rep, err := p.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stages[1].LinesAdded != 1 || rep.Stages[1].LinesRemoved != 0 {
		t.Fatalf("delta = +%d/-%d, want +1/-0",
			rep.Stages[1].LinesAdded, rep.Stages[1].LinesRemoved)
	}
	if !strings.Contains(rep.String(), "+1/-0") {
		t.Fatalf("report should include delta:\n%s", rep)
	}
}

func TestDiffLines(t *testing.T) {
	cases := []struct {
		a, b        string
		add, remove int
	}{
		{"", "", 0, 0},
		{"a\nb\n", "a\nb\n", 0, 0},
		{"a\n", "a\nb\n", 1, 0},
		{"a\nb\n", "a\n", 0, 1},
		{"a\nb\nc\n", "a\nx\nc\n", 1, 1},
		{"", "a\nb\n", 2, 0},
	}
	for i, c := range cases {
		add, rm := DiffLines(c.a, c.b)
		if add != c.add || rm != c.remove {
			t.Fatalf("case %d: got +%d/-%d want +%d/-%d", i, add, rm, c.add, c.remove)
		}
	}
}

func TestStageKindString(t *testing.T) {
	if Sequential.String() != "sequential" ||
		SimulatedParallel.String() != "simulated-parallel" ||
		Parallel.String() != "parallel" {
		t.Fatal("kind names")
	}
	if !strings.Contains(StageKind(42).String(), "42") {
		t.Fatal("unknown kind")
	}
}

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
