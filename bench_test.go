package archetype

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation, plus ablations of the design choices the archetype makes
// (message combining, reduction algorithm, host vs concurrent I/O,
// directional vs full boundary exchange).
//
// The per-table benchmarks execute the archetype program on a
// step-scaled workload (the per-step profile is identical to the full
// run) and report the machine model's simulated speedup as a custom
// metric, so `go test -bench .` regenerates the shape of every result.
// cmd/archexp runs the full-size workloads.

import (
	"fmt"
	"testing"

	"repro/internal/fdtd"
	"repro/internal/fsum"
	"repro/internal/grid"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/mesh"
	"repro/internal/sched"
	"repro/internal/ssp"

	"math/rand"
)

// benchSpeedup runs the archetype build at each P on a scaled spec and
// reports simulated speedups as metrics.
func benchSpeedup(b *testing.B, spec fdtd.Spec, ps []int, model machine.Model) {
	b.Helper()
	seq, err := fdtd.RunSequential(spec)
	if err != nil {
		b.Fatal(err)
	}
	seqTime := seq.Work * model.SecPerWork
	for _, p := range ps {
		p := p
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			var lastSpeedup float64
			for i := 0; i < b.N; i++ {
				opt := fdtd.DefaultOptions()
				opt.Mesh.Profile = machine.NewProfile(p)
				arch, err := fdtd.RunArchetype(spec, p, mesh.Sim, opt)
				if err != nil {
					b.Fatal(err)
				}
				if arch.Work != seq.Work {
					b.Fatalf("work mismatch: %v vs %v", arch.Work, seq.Work)
				}
				lastSpeedup = machine.Speedup(seqTime, model.Time(opt.Mesh.Profile))
			}
			b.ReportMetric(lastSpeedup, "simspeedup")
			b.ReportMetric(float64(p), "procs")
		})
	}
}

// BenchmarkTable1VersionC regenerates Table 1 (Version C, 33x33x33,
// network-of-Suns model) with the step count scaled for benchmarking.
func BenchmarkTable1VersionC(b *testing.B) {
	spec := fdtd.SpecTable1()
	spec.Steps = 32 // long enough to amortise the host-I/O startup phases
	benchSpeedup(b, spec, []int{2, 4, 8}, machine.SunEthernet())
}

// BenchmarkFigure2VersionA regenerates Figure 2 (Version A, 66x66x66,
// IBM SP model) with the step count scaled for benchmarking.
func BenchmarkFigure2VersionA(b *testing.B) {
	spec := fdtd.SpecFigure2()
	spec.Steps = 16
	benchSpeedup(b, spec, []int{2, 4, 8, 16}, machine.IBMSP())
}

// BenchmarkSequentialKernel measures the raw sequential FDTD update
// throughput on this host (the quantity the speedup tables calibrate
// against).
func BenchmarkSequentialKernel(b *testing.B) {
	spec := fdtd.SpecTable1()
	spec.Steps = 4
	b.ResetTimer()
	var work float64
	for i := 0; i < b.N; i++ {
		res, err := fdtd.RunSequential(spec)
		if err != nil {
			b.Fatal(err)
		}
		work = res.Work
	}
	b.ReportMetric(work*float64(b.N)/b.Elapsed().Seconds(), "workunits/s")
}

// BenchmarkArchetypeKernel measures the slab kernel used by the
// archetype builds (pencil-sliced loops) for comparison with the
// straightforward sequential loops.
func BenchmarkArchetypeKernel(b *testing.B) {
	spec := fdtd.SpecTable1()
	spec.Steps = 4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fdtd.RunArchetype(spec, 1, mesh.Sim, fdtd.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationMessageCombining compares the simulated
// communication cost of the Table 1 run with and without message
// combining.
func BenchmarkAblationMessageCombining(b *testing.B) {
	spec := fdtd.SpecTable1()
	spec.Steps = 8
	model := machine.SunEthernet()
	for _, combine := range []bool{true, false} {
		combine := combine
		b.Run(fmt.Sprintf("combine=%v", combine), func(b *testing.B) {
			var simTime float64
			var msgs int
			for i := 0; i < b.N; i++ {
				opt := fdtd.DefaultOptions()
				opt.Mesh.Combine = combine
				opt.Mesh.Profile = machine.NewProfile(8)
				if _, err := fdtd.RunArchetype(spec, 8, mesh.Sim, opt); err != nil {
					b.Fatal(err)
				}
				simTime = model.Time(opt.Mesh.Profile)
				msgs = opt.Mesh.Profile.Totals().Messages
			}
			b.ReportMetric(simTime, "simsec")
			b.ReportMetric(float64(msgs), "msgs")
		})
	}
}

// BenchmarkAblationReduction compares recursive-doubling and all-to-one
// reductions on the Version C far-field combine.
func BenchmarkAblationReduction(b *testing.B) {
	spec := fdtd.SpecTable1()
	spec.Steps = 8
	model := machine.SunEthernet()
	for _, alg := range []mesh.ReduceAlg{mesh.RecursiveDoubling, mesh.AllToOne} {
		alg := alg
		b.Run(alg.String(), func(b *testing.B) {
			var simTime float64
			for i := 0; i < b.N; i++ {
				opt := fdtd.DefaultOptions()
				opt.Mesh.ReduceAlg = alg
				opt.Mesh.Profile = machine.NewProfile(8)
				if _, err := fdtd.RunArchetype(spec, 8, mesh.Sim, opt); err != nil {
					b.Fatal(err)
				}
				simTime = model.Time(opt.Mesh.Profile)
			}
			b.ReportMetric(simTime, "simsec")
		})
	}
}

// BenchmarkAblationHostIO compares host-process I/O redistribution with
// concurrent (duplicated) coefficient computation.
func BenchmarkAblationHostIO(b *testing.B) {
	spec := fdtd.SpecTable1()
	spec.Steps = 4
	model := machine.SunEthernet()
	for _, host := range []bool{true, false} {
		host := host
		b.Run(fmt.Sprintf("hostIO=%v", host), func(b *testing.B) {
			var bytes int64
			var simTime float64
			for i := 0; i < b.N; i++ {
				opt := fdtd.DefaultOptions()
				opt.HostIO = host
				opt.Mesh.Profile = machine.NewProfile(4)
				if _, err := fdtd.RunArchetype(spec, 4, mesh.Sim, opt); err != nil {
					b.Fatal(err)
				}
				bytes = opt.Mesh.Profile.Totals().Bytes
				simTime = model.Time(opt.Mesh.Profile)
			}
			b.ReportMetric(float64(bytes), "bytes")
			b.ReportMetric(simTime, "simsec")
		})
	}
}

// BenchmarkAblationDirectionalExchange compares the leapfrog-aware
// directional exchange — the send and receive halves of one direction,
// as the FDTD stepper runs them — against refreshing the full ghost
// boundary of both grids in one coalesced exchange.
func BenchmarkAblationDirectionalExchange(b *testing.B) {
	const nx, ny, nz, p, steps = 32, 32, 32, 4, 16
	slabs := grid.SlabDecompose3(nx, ny, nz, p, grid.AxisX)
	run := func(full bool) *machine.Profile {
		prof := machine.NewProfile(p)
		opt := mesh.DefaultOptions()
		opt.Profile = prof
		_, err := mesh.Run(p, mesh.Sim, opt, func(c *mesh.Comm) int {
			gs := []*grid.G3{slabs[c.Rank()].NewLocal3(1), slabs[c.Rank()].NewLocal3(1)}
			up, down := c.Rank()+1, c.Rank()-1
			if up == p {
				up = -1
			}
			for s := 0; s < steps; s++ {
				if full {
					c.ExchangeGhostPlanesMulti(grid.AxisX, gs...)
				} else {
					c.StartSendUpTo(grid.AxisX, up, gs...)
					c.FinishSendUpTo(grid.AxisX, down, gs...)
				}
			}
			return 0
		})
		if err != nil {
			b.Fatal(err)
		}
		return prof
	}
	model := machine.SunEthernet()
	for _, full := range []bool{false, true} {
		full := full
		name := "directional"
		if full {
			name = "full-exchange"
		}
		b.Run(name, func(b *testing.B) {
			var simTime float64
			for i := 0; i < b.N; i++ {
				simTime = model.Time(run(full))
			}
			b.ReportMetric(simTime, "simsec")
		})
	}
}

// BenchmarkReductionCollective measures the raw archetype reduction on
// vectors of the far-field accumulator size.
func BenchmarkReductionCollective(b *testing.B) {
	for _, alg := range []mesh.ReduceAlg{mesh.RecursiveDoubling, mesh.AllToOne} {
		alg := alg
		b.Run(alg.String(), func(b *testing.B) {
			vec := make([]float64, 256)
			for i := range vec {
				vec[i] = float64(i)
			}
			for i := 0; i < b.N; i++ {
				_, err := mesh.Run(8, mesh.Sim, mesh.DefaultOptions(), func(c *mesh.Comm) float64 {
					out := c.AllReduceVecAlg(vec, mesh.OpSum, alg)
					return out[0]
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSSPTransformation measures the mechanical Theorem 1
// transformation end to end on a synthetic SSP program.
func BenchmarkSSPTransformation(b *testing.B) {
	n := 8
	init := make([]*ssp.Space, n)
	for i := range init {
		s := ssp.NewSpace()
		s.Scalars["x"] = float64(i)
		s.Scalars["in"] = 0
		init[i] = s
	}
	var phases []ssp.Phase
	for r := 0; r < 4; r++ {
		blocks := make([]func(int, *ssp.Space), n)
		for i := range blocks {
			blocks[i] = func(p int, s *ssp.Space) { s.Scalars["x"] = s.Scalars["x"]*1.01 + s.Scalars["in"] }
		}
		phases = append(phases, ssp.Local{Label: "c", Blocks: blocks})
		var as []ssp.Assignment
		for i := 0; i < n; i++ {
			as = append(as, ssp.Copy(i, ssp.Ref{Name: "in", Index: ssp.ScalarIndex},
				(i+1)%n, ssp.Ref{Name: "x", Index: ssp.ScalarIndex}))
		}
		phases = append(phases, ssp.Exchange{Label: "x", Assignments: as})
	}
	prog := &ssp.Program{N: n, Phases: phases}
	if err := prog.Validate(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		procs := prog.Procs(init, ssp.LowerOptions{CombineMessages: true})
		if _, err := sched.RunControlled(procs, sched.NewRoundRobin(), sched.Options[ssp.Message]{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSummation compares the summation algorithms on wide-range
// data (the far-field workload's numerical profile).
func BenchmarkSummation(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := fsum.WideRange(1<<16, 14, rng)
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = fsum.Naive(xs)
		}
	})
	b.Run("kahan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = fsum.Kahan(xs)
		}
	})
	b.Run("neumaier", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = fsum.Neumaier(xs)
		}
	})
	b.Run("pairwise", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = fsum.Pairwise(xs)
		}
	})
}

// TestBenchmarkShapes is a correctness companion to the benches: the
// scaled Table 1 and Figure 2 runs must already exhibit the paper's
// qualitative shape.
func TestBenchmarkShapes(t *testing.T) {
	spec := fdtd.SpecTable1()
	spec.Steps = 32
	tab, err := harness.RunSpeedup(harness.SpeedupConfig{
		Spec: spec, Ps: []int{2, 4, 8}, Model: machine.SunEthernet(),
		Opt: fdtd.DefaultOptions(), Title: "scaled table 1", CalibrateOff: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if msg := tab.CheckShape(); msg != "" {
		t.Fatalf("table 1 shape: %s\n%s", msg, tab.Format())
	}
}

// BenchmarkAblationGhostWidth compares the standard width-1 ghost
// exchange every step against a width-2 ghost exchanged every other
// step (the halo-doubling trade: half the messages and synchronisation
// points for twice the payload per exchange and some redundant
// computation).
func BenchmarkAblationGhostWidth(b *testing.B) {
	const nx, ny, nz, p, steps = 64, 48, 48, 4, 32
	slabs := grid.SlabDecompose3(nx, ny, nz, p, grid.AxisX)
	model := machine.SunEthernet()
	run := func(width int) *machine.Profile {
		prof := machine.NewProfile(p)
		opt := mesh.DefaultOptions()
		opt.Profile = prof
		_, err := mesh.Run(p, mesh.Sim, opt, func(c *mesh.Comm) int {
			g := slabs[c.Rank()].NewLocal3(width)
			for s := 0; s < steps; s++ {
				if s%width == 0 {
					c.ExchangeGhostPlanesMulti(grid.AxisX, g)
				}
				// The wider halo pays for skipped exchanges with
				// redundant updates of ghost-adjacent cells.
				redundant := (width - 1) * ny * nz
				c.Work(float64(g.NX()*ny*nz + redundant))
			}
			return 0
		})
		if err != nil {
			b.Fatal(err)
		}
		return prof
	}
	for _, width := range []int{1, 2} {
		width := width
		b.Run(fmt.Sprintf("ghost=%d", width), func(b *testing.B) {
			var simTime float64
			var msgs int
			for i := 0; i < b.N; i++ {
				prof := run(width)
				simTime = model.Time(prof)
				msgs = prof.Totals().Messages
			}
			b.ReportMetric(simTime, "simsec")
			b.ReportMetric(float64(msgs), "msgs")
		})
	}
}

// BenchmarkDecompositionShape compares 1-D slabs against 2-D blocks for
// the Table 1 workload at the same process count (the ablation row the
// experiments report).
func BenchmarkDecompositionShape(b *testing.B) {
	spec := fdtd.SpecTable1()
	spec.Steps = 16
	model := machine.SunEthernet()
	run := func(oneD bool) *machine.Profile {
		opt := fdtd.DefaultOptions()
		opt.Mesh.Profile = machine.NewProfile(8)
		var err error
		if oneD {
			_, err = fdtd.RunArchetype(spec, 8, mesh.Sim, opt)
		} else {
			_, err = fdtd.RunArchetype2D(spec, 4, 2, mesh.Sim, opt)
		}
		if err != nil {
			b.Fatal(err)
		}
		return opt.Mesh.Profile
	}
	for _, oneD := range []bool{true, false} {
		oneD := oneD
		name := "slabs-8x1"
		if !oneD {
			name = "blocks-4x2"
		}
		b.Run(name, func(b *testing.B) {
			var simTime float64
			var bytes int64
			for i := 0; i < b.N; i++ {
				prof := run(oneD)
				simTime = model.Time(prof)
				bytes = prof.Totals().Bytes
			}
			b.ReportMetric(simTime, "simsec")
			b.ReportMetric(float64(bytes)/1e6, "MB")
		})
	}
}
