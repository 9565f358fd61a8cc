package fdtd

import (
	"testing"

	"repro/internal/grid"
)

// BenchmarkKernels measures the slab update kernels in cell-component
// updates per second.
func BenchmarkKernels(b *testing.B) {
	spec := SpecFigure2()
	full := grid.Range{Lo: 0, Hi: spec.NX}
	fullY := grid.Range{Lo: 0, Hi: spec.NY}
	f := newFields(spec, full, fullY)
	f.fillCoefficientsLocal()
	b.ResetTimer()
	updates := 0
	for i := 0; i < b.N; i++ {
		updates += updateERange(f, 0, spec.NX, 0, spec.NY)
		updates += updateHRange(f, 0, spec.NX, 0, spec.NY)
	}
	b.ReportMetric(float64(updates)/b.Elapsed().Seconds(), "updates/s")
}

// BenchmarkKernelsBenchGrid runs the pencil and reference kernels on
// the BENCH_obs.json bench grid (24x16x16), so the row-view speedup
// the roofline report claims is reproducible with `go test -bench` on
// the exact workload the committed baselines were recorded on.
func BenchmarkKernelsBenchGrid(b *testing.B) {
	spec := SpecTable1()
	spec.NX, spec.NY, spec.NZ = 24, 16, 16
	for _, v := range []KernelVariant{KernelPencil, KernelReference} {
		v := v
		b.Run(v.String(), func(b *testing.B) {
			f := newFields(spec, grid.Range{Lo: 0, Hi: spec.NX}, grid.Range{Lo: 0, Hi: spec.NY})
			f.fillCoefficientsLocal()
			updE, updH := updateERange, updateHRange
			if v == KernelReference {
				updE, updH = updateERangeRef, updateHRangeRef
			}
			nxl, nyl := spec.NX, spec.NY
			b.ResetTimer()
			updates := 0
			for i := 0; i < b.N; i++ {
				updates += updE(f, 0, nxl, 0, nyl)
				updates += updH(f, 0, nxl, 0, nyl)
			}
			b.ReportMetric(float64(updates)/b.Elapsed().Seconds(), "updates/s")
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
// cost per surface point.
func BenchmarkFarFieldAccumulate(b *testing.B) {
	spec := SpecTable1()
	full := grid.Range{Lo: 0, Hi: spec.NX}
	fullY := grid.Range{Lo: 0, Hi: spec.NY}
	f := newFields(spec, full, fullY)
	f.fillCoefficientsLocal()
	ff := newFarField(spec, false)
	b.ResetTimer()
	points := 0
	for i := 0; i < b.N; i++ {
		points += ff.accumulate(i%spec.Steps, f.Ex, f.Ey, f.Ez, f.Hx, f.Hy, f.Hz, full, fullY)
	}
	b.ReportMetric(float64(points)/b.Elapsed().Seconds(), "points/s")
}
