package harness

import (
	"strings"
	"testing"

	"repro/internal/explore"
	"repro/internal/fdtd"
	"repro/internal/machine"
	"repro/internal/mesh"
	"repro/internal/sched"
)

func TestRunSpeedupSmall(t *testing.T) {
	tab, err := RunSpeedup(SpeedupConfig{
		Spec:  fdtd.SpecSmallA(),
		Ps:    []int{2, 4},
		Model: machine.IBMSP(),
		Opt:   fdtd.DefaultOptions(),
		Title: "small speedup",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if seq := tab.Rows[0]; seq.Speedup != 1 || seq.Measured != 1 || seq.Wall <= 0 {
		t.Fatalf("bad sequential row %+v", seq)
	}
	for _, r := range tab.Rows[1:] {
		if r.Seconds <= 0 || r.Speedup <= 0 || r.Wall <= 0 || r.Measured <= 0 {
			t.Fatalf("bad row %+v", r)
		}
	}
	out := tab.Format()
	for _, want := range []string{"small speedup", "Sequential", "Parallel, P=2", "ideal", "wall (s)", "measured x"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format missing %q:\n%s", want, out)
		}
	}
}

func TestSpeedupShapeOnRealisticSize(t *testing.T) {
	// Large enough that compute dominates latency per slab: the shape
	// criteria of the paper (monotone, sub-linear) must hold.  Uses the
	// uncalibrated preset model so the result is host-independent.
	spec := fdtd.SpecTable1()
	spec.Steps = 8 // the profile per step is identical; 8 steps suffice
	tab, err := RunSpeedup(SpeedupConfig{
		Spec:         spec,
		Ps:           []int{2, 4, 8},
		Model:        machine.IBMSP(),
		Opt:          fdtd.DefaultOptions(),
		Title:        "shape check",
		CalibrateOff: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if msg := tab.CheckShape(); msg != "" {
		t.Fatalf("shape violated: %s\n%s", msg, tab.Format())
	}
	if eff := tab.MinEfficiency(); eff <= 0 || eff >= 1 {
		t.Fatalf("efficiency out of range: %v", eff)
	}
}

func TestSunScalesWorseThanSP(t *testing.T) {
	spec := fdtd.SpecTable1()
	spec.Steps = 8
	run := func(m machine.Model) *Table {
		tab, err := RunSpeedup(SpeedupConfig{
			Spec: spec, Ps: []int{4}, Model: m,
			Opt: fdtd.DefaultOptions(), Title: "x", CalibrateOff: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	sun := run(machine.SunEthernet())
	sp := run(machine.IBMSP())
	if sun.Rows[1].Efficiency >= sp.Rows[1].Efficiency {
		t.Fatalf("Sun efficiency %v should be below SP %v",
			sun.Rows[1].Efficiency, sp.Rows[1].Efficiency)
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
		add, rm := diffLines(c.a, c.b)
		if add != c.add || rm != c.remove {
			t.Fatalf("case %d: got +%d/-%d want +%d/-%d", i, add, rm, c.add, c.remove)
		}
	}
}

func TestRunFarFieldAnalysis(t *testing.T) {
	a, err := RunFarFieldAnalysis(fdtd.SpecSmall(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.NaiveMaxRelDev <= 0 {
		t.Fatal("naive reordering should deviate")
	}
	if a.FixedMaxRelDev > 1e-12 {
		t.Fatalf("compensated far field too inaccurate: %g", a.FixedMaxRelDev)
	}
	if a.SyntheticWide <= a.SyntheticNarrow {
		t.Fatal("wide-range data must be more order-sensitive")
	}
	if a.DynamicRangeDecades <= 1 {
		t.Fatalf("far-field potentials should span decades, got %.2f", a.DynamicRangeDecades)
	}
	if !strings.Contains(a.String(), "decades") {
		t.Fatal("report should mention dynamic range")
	}
	if _, err := RunFarFieldAnalysis(fdtd.SpecSmallA(), 2); err == nil {
		t.Fatal("Version A has no far field to analyse")
	}
}

func TestRunEffort(t *testing.T) {
	for _, v := range []string{"A", "C"} {
		rep := RunEffort(v)
		if len(rep.Rows) != 3 {
			t.Fatalf("rows = %d", len(rep.Rows))
		}
		ssp, mp := rep.Rows[1], rep.Rows[2]
		if ssp.LinesAdded+ssp.LinesRemoved <= mp.LinesAdded+mp.LinesRemoved {
			t.Fatalf("version %s: SSP step should dominate the delta: %+v vs %+v", v, ssp, mp)
		}
		if !strings.Contains(rep.String(), "paper (days)") {
			t.Fatal("report header missing")
		}
	}
	// Version C's far-field handling makes its SSP delta larger.
	a, c := RunEffort("A"), RunEffort("C")
	if c.Rows[1].LinesAdded <= a.Rows[1].LinesAdded {
		t.Fatal("version C should require a larger SSP transformation")
	}
}

func TestRunFigure1(t *testing.T) {
	rep, err := RunFigure1()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Equivalent || !rep.SameFinalState {
		t.Fatalf("Figure 1 correspondence failed:\n%s", rep)
	}
	out := rep.String()
	for _, want := range []string{"simulated-parallel interleaving", "send->P1", "recv<-P0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

// TestRunDeterminacy is experiment E4 on the full application: the
// archetype FDTD program, explored under channel dependence once per
// default policy as the continuation.  Each exploration must certify
// the program (one schedule, determinate), and every continuation must
// reach bitwise the same final state.
func TestRunDeterminacy(t *testing.T) {
	const p = 3
	spec := fdtd.SpecSmall()
	opt := fdtd.DefaultOptions()
	body, err := fdtd.SPMD(spec, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() []sched.Proc[mesh.Msg, *fdtd.Result] { return mesh.Procs(p, opt.Mesh, body) }
	reps, err := explore.Across(mk, explore.Options[*fdtd.Result]{Mode: explore.DepChannel}, sched.DefaultPolicies(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range reps {
		if rep.Schedules != 1 {
			t.Fatalf("continue %s: %s", rep.Continue, rep.Summary())
		}
	}
}

func TestCheckShapeCatchesViolations(t *testing.T) {
	tab := &Table{Rows: []Row{
		{Label: "seq", P: 1, Speedup: 1},
		{Label: "p2", P: 2, Speedup: 1.8},
		{Label: "p4", P: 4, Speedup: 1.5}, // non-monotone
	}}
	if tab.CheckShape() == "" {
		t.Fatal("non-monotone speedup should be flagged")
	}
	tab.Rows[2].Speedup = 4.2 // super-linear
	if tab.CheckShape() == "" {
		t.Fatal("super-linear speedup should be flagged")
	}
	tab.Rows[2].Speedup = 3.1
	if msg := tab.CheckShape(); msg != "" {
		t.Fatalf("valid shape flagged: %s", msg)
	}
}
