package archetype

// Integration tests exercising the public facade end to end — the API
// surface a downstream user sees.

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/explore"
	"repro/internal/sched"
)

func TestFacadeMeshRoundTrip(t *testing.T) {
	prog := func(c *Comm) float64 {
		local := float64(c.Rank() + 1)
		sum := c.AllReduce(local, OpSum)
		max := c.AllReduce(local, OpMax)
		return c.Broadcast(sum/max, 0)
	}
	sim, err := RunMesh(4, Sim, DefaultMeshOptions(), prog)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunMesh(4, Par, DefaultMeshOptions(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sim, par) {
		t.Fatal("facade Sim != Par")
	}
	// sum = 10, max = 4.
	if sim[0] != 2.5 {
		t.Fatalf("result = %v", sim[0])
	}
}

func TestFacadeGridAndDecompose(t *testing.T) {
	g := NewGrid3(4, 4, 4, 1)
	g.Set(0, 0, 0, 1)
	if g.At(0, 0, 0) != 1 {
		t.Fatal("grid facade broken")
	}
	rs := Decompose(10, 3)
	if len(rs) != 3 || rs[2].Hi != 10 {
		t.Fatalf("decompose = %v", rs)
	}
	slabs := SlabDecompose3(8, 8, 8, 2, 0)
	if len(slabs) != 2 {
		t.Fatal("slab decompose facade broken")
	}
}

func TestFacadeFDTDPipeline(t *testing.T) {
	spec := SpecTable1()
	spec.Steps = 8
	seq, err := RunFDTDSequential(spec)
	if err != nil {
		t.Fatal(err)
	}
	arch, err := RunFDTDArchetype(spec, 3, Sim, DefaultFDTDOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !seq.NearFieldEqual(arch) {
		t.Fatal("facade FDTD near field mismatch")
	}
	if SpecFigure2().IsVersionC() {
		t.Fatal("Figure 2 spec should be Version A")
	}
}

func TestFacadeMachineModels(t *testing.T) {
	prof := NewProfile(2)
	prof.Work(0, 100)
	prof.Work(1, 100)
	sun, sp := SunEthernet(), IBMSP()
	if sun.Time(prof) <= sp.Time(prof) {
		t.Fatal("Sun should be slower than SP on pure compute")
	}
}

func TestFacadeDeterminacy(t *testing.T) {
	mk := func() []sched.Proc[int, int] {
		return []sched.Proc[int, int]{
			func(ctx *sched.Ctx[int]) int { ctx.Send(1, 5); return 0 },
			func(ctx *sched.Ctx[int]) int { return ctx.Recv(0) },
		}
	}
	// DepFull enumerates every order of the two processes' actions.
	rep, err := CheckDeterminacy(mk, explore.Options[int]{Mode: explore.DepFull})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Determinate() || rep.Reference != "[0 5]" {
		t.Fatalf("facade determinacy check failed: %s, reference %s", rep.Summary(), rep.Reference)
	}
	for k := 0; k < 4; k++ {
		got, err := sched.RunConcurrent(mk(), sched.Options[int]{})
		if err != nil || got[0] != 0 || got[1] != 5 {
			t.Fatalf("concurrent run %d: %v, final states %v, want [0 5]", k, err, got)
		}
	}
}

func TestFacadeExperiments(t *testing.T) {
	rep := RunEffort("C")
	if !strings.Contains(rep.String(), "Version C") {
		t.Fatal("effort facade broken")
	}
	fig, err := RunFigure1()
	if err != nil {
		t.Fatal(err)
	}
	if !fig.Equivalent {
		t.Fatal("figure 1 facade broken")
	}
}

func TestFacadeSecondApplicationAndArchetype(t *testing.T) {
	// 2-D wave solver through the facade.
	spec := Wave2DSpec{
		NX: 12, NY: 10, Steps: 8, DT: 0.5,
		SI: 6, SJ: 5, Delay: 3, Width: 1.5, PI: 8, PJ: 5,
	}
	seq, err := RunWave2DSequential(spec)
	if err != nil {
		t.Fatal(err)
	}
	arch, err := RunWave2DArchetype(spec, 2, 2, Sim, DefaultMeshOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !seq.Equal(arch) {
		t.Fatal("facade wave2d mismatch")
	}
	// Task farm through the facade.
	got, err := FarmMap(6, 3, 1 /* farm.Par */, DefaultFarmOptions(), func(task int) int {
		return task * 3
	})
	if err != nil {
		t.Fatal(err)
	}
	if got[5] != 15 {
		t.Fatalf("farm results = %v", got)
	}
}

func TestFacadeStencilAndProfile(t *testing.T) {
	st := Stencil1D{
		N: 9, Radius: 1, Steps: 2,
		Init:   func(i int) float64 { return float64(i) },
		Update: func(w []float64) float64 { return (w[0] + w[1] + w[2]) / 3 },
	}
	want, err := st.RunSequentialDirect()
	if err != nil {
		t.Fatal(err)
	}
	prog, spaces, err := st.Program(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.RunSequential(spaces); err != nil {
		t.Fatal(err)
	}
	got := st.Flatten(spaces)
	for i := range want {
		if got[i] != want[i] {
			t.Fatal("facade stencil mismatch")
		}
	}
	// Profile + DES through the facade.
	prof := NewProfile(2)
	prof.Work(0, 10)
	prof.Send(0, 1, 8)
	prof.Recv(1, 0)
	if _, total, err := IBMSP().DES(prof); err != nil || total <= 0 {
		t.Fatalf("facade DES: %v %v", total, err)
	}
}
