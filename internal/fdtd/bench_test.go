package fdtd

import (
	"testing"

	"repro/internal/channel"
	"repro/internal/grid"
	"repro/internal/mesh"
)

// haloGrid is the 24x16x16 Version C grid of the benchmark's
// halo-p2-socket and job workloads, object layout included.
func haloGrid(steps int) Spec {
	spec := SpecTable1()
	spec.NX, spec.NY, spec.NZ, spec.Steps = 24, 16, 16, steps
	spec.Source.I, spec.Source.J, spec.Source.K = 12, 8, 8
	spec.Probe = [3]int{15, 8, 8}
	spec.Objects = []Object{
		{I0: 6, I1: 11, J0: 4, J1: 12, K0: 4, K1: 12, EpsR: 4, MuR: 1, Sigma: 0.02},
		{I0: 14, I1: 19, J0: 5, J1: 11, K0: 5, K1: 11, EpsR: 1, MuR: 2, SigmaM: 0.01},
	}
	return spec
}

// BenchmarkHaloStep runs the exchange-bound workload — the 24×16×16
// Version C grid, cache-resident, a step a few tens of µs — at P = 1,
// at P = 2 over in-process channels and at P = 2 over a unix loopback
// socket mesh, and reports µs per Yee step.  On a host with two cores
// both P = 2 rows belong below the P = 1 row; if the ranks ever go back
// to running one at a time, the P = 2 rows rise above it.
func BenchmarkHaloStep(b *testing.B) {
	spec := haloGrid(4096)
	for _, c := range []struct {
		name   string
		p      int
		socket bool
	}{{"P=1", 1, false}, {"P=2/inproc", 2, false}, {"P=2/unix", 2, true}} {
		b.Run(c.name, func(b *testing.B) {
			opt := DefaultOptions()
			opt.Mesh.Workers = 1
			if c.socket {
				tr, err := channel.NewLoopbackMesh[mesh.Msg](c.p, "unix", mesh.WireCodec(), channel.SocketOptions{})
				if err != nil {
					b.Fatal(err)
				}
				defer tr.Close()
				opt.Mesh.Transport = tr
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := RunArchetype(spec, c.p, mesh.Par, opt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(b.Elapsed().Seconds()*1e6/float64(b.N*spec.Steps), "us/step")
		})
	}
}

// BenchmarkKernels measures the pencil kernels on the Figure 2 grid
// in cell-component updates per second, once per row body this CPU
// has, so the packed body's speedup over the generic one is
// reproducible with `go test -bench`.
func BenchmarkKernels(b *testing.B) {
	spec := SpecFigure2()
	xr, yr := grid.Range{Lo: 0, Hi: spec.NX}, grid.Range{Lo: 0, Hi: spec.NY}
	f := newFields(spec, xr, yr, internCoefficients(spec, xr, yr))
	benchRowBodies(b, func(b *testing.B) {
		updates := 0
		for i := 0; i < b.N; i++ {
			updates += updateERange(f, 0, spec.NX, 0, spec.NY)
			updates += updateHRange(f, 0, spec.NX, 0, spec.NY)
		}
		b.ReportMetric(float64(updates)/b.Elapsed().Seconds(), "updates/s")
	})
}

// BenchmarkKernelsBenchGrid runs the pencil kernels, once per row
// body, and the reference kernels on the 24x16x16 grid of the
// halo-p2-socket workload, so the speedups the roofline report claims
// are reproducible with `go test -bench` on a grid the benchmark runs.
func BenchmarkKernelsBenchGrid(b *testing.B) {
	spec := haloGrid(1)
	xr, yr := grid.Range{Lo: 0, Hi: spec.NX}, grid.Range{Lo: 0, Hi: spec.NY}
	f := newFields(spec, xr, yr, internCoefficients(spec, xr, yr))
	run := func(updE, updH kernel) func(b *testing.B) {
		return func(b *testing.B) {
			updates := 0
			for i := 0; i < b.N; i++ {
				updates += updE(f, 0, spec.NX, 0, spec.NY)
				updates += updH(f, 0, spec.NX, 0, spec.NY)
			}
			b.ReportMetric(float64(updates)/b.Elapsed().Seconds(), "updates/s")
		}
	}
	b.Run(KernelPencil.String(), func(b *testing.B) { benchRowBodies(b, run(KernelPencil.kernels())) })
	b.Run(KernelReference.String(), run(KernelReference.kernels()))
}

// benchRowBodies runs fn as one sub-benchmark per row body this CPU
// has, with that body active.
func benchRowBodies(b *testing.B, fn func(b *testing.B)) {
	for _, body := range rowBodies() {
		b.Run(body.String(), func(b *testing.B) {
			defer func(old rowBody) { activeRow = old }(activeRow)
			activeRow = body
			fn(b)
		})
	}
}

// BenchmarkSequentialLoops measures the sequential program end to end
// (setup, stepping and gather on the trivial decomposition).
func BenchmarkSequentialLoops(b *testing.B) {
	spec := SpecTable1()
	spec.Steps = 2
	spec.FarField = nil
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunSequential(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFarFieldAccumulate measures the near-to-far-field transform
// cost per surface point on the Table 1 grid and on the 24x16x16 job
// grid of the service workloads: over the full domain, over rank 0's
// block of a P = 2 decomposition, and compensated.
func BenchmarkFarFieldAccumulate(b *testing.B) {
	for _, c := range []struct {
		name        string
		spec        Spec
		p           int
		compensated bool
	}{
		{"table1", SpecTable1(), 1, false},
		{"job", haloGrid(64), 1, false},
		{"job-p2", haloGrid(64), 2, false},
		{"job-compensated", haloGrid(64), 1, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			spec := c.spec
			dec, err := decompose(spec, c.p, 1)
			if err != nil {
				b.Fatal(err)
			}
			blk := dec.block(0)
			f := newFields(spec, blk.xr, blk.yr, nil)
			ff := newFarField(spec, c.compensated, f)
			b.ResetTimer()
			points := 0
			for i := 0; i < b.N; i++ {
				points += ff.accumulate(i % spec.Steps)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(points), "ns/point")
			b.ReportMetric(float64(points)/b.Elapsed().Seconds(), "points/s")
		})
	}
}
