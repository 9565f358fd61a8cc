package fdtd

import (
	"math/rand"
	"testing"

	"repro/internal/grid"
)

// cloneFields deep-copies a block's fields so two kernel
// implementations can advance the same state independently; the
// read-only coefficient table is shared.
func cloneFields(f *Fields) *Fields {
	return &Fields{
		Spec: f.Spec, XR: f.XR, YR: f.YR,
		Ex: f.Ex.Clone(), Ey: f.Ey.Clone(), Ez: f.Ez.Clone(),
		Hx: f.Hx.Clone(), Hy: f.Hy.Clone(), Hz: f.Hz.Clone(),
		Coef: f.Coef,
	}
}

// randomBox draws an axis-aligned material box anywhere in the grid,
// with random material parameters.
func randomBox(rng *rand.Rand, spec Spec) Object {
	span := func(n int) (lo, hi int) {
		lo = rng.Intn(n)
		return lo, lo + 1 + rng.Intn(n-lo)
	}
	o := Object{EpsR: 1 + rng.Float64(), MuR: 1 + rng.Float64(), Sigma: rng.Float64(), SigmaM: rng.Float64()}
	o.I0, o.I1 = span(spec.NX)
	o.J0, o.J1 = span(spec.NY)
	o.K0, o.K1 = span(spec.NZ)
	return o
}

// randomizeStorage fills a grid's entire backing array — ghost cells
// included, standing in for halo values a neighbour block would have
// sent — with values in [-1, 1).
func randomizeStorage(rng *rand.Rand, g *grid.G3) {
	d := g.Data()
	for i := range d {
		d[i] = rng.Float64()*2 - 1
	}
}

// TestKernelPencilVsReferenceProperty is the executable form of the
// claim in kernel_ref.go: on ANY window of ANY block of ANY spec, the
// fused row-view kernels (updateERange/updateHRange) over the block's
// interned coefficient table produce bitwise the results of the
// per-cell reference kernels, which read every coefficient from the
// spec.  Each trial draws a random spec (sizes, zero to three possibly
// overlapping material boxes — later ones override, so blocks hold
// several column classes with overlapping footprints — PEC or Mur
// boundary), a random
// block of the global domain (so every PEC-clamp and ghost-read case
// occurs: interior blocks, boundary blocks, the full domain), random
// field state including ghosts, and a random — possibly empty — update
// window, then advances both implementations in lockstep for a few
// steps and requires every field grid to stay identical.  The Mur
// trials run snapshot/apply around the E updates, so the scratch-buffer
// boundary path composes with both kernel forms.  Run under -race by
// the Makefile race target, the trials double as a data-race check on
// the row views.  It runs once per row body.
func TestKernelPencilVsReferenceProperty(t *testing.T) {
	forEachRowBody(t, testKernelPencilVsReference)
}

func testKernelPencilVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 80; trial++ {
		spec := Spec{
			NX: 4 + rng.Intn(7), NY: 4 + rng.Intn(7), NZ: 4 + rng.Intn(7),
			Steps: 3,
			DT:    0.2 + 0.3*rng.Float64(),
			Source: SourceSpec{
				Amplitude: 1, Delay: 5, Width: 2,
			},
		}
		if rng.Intn(2) == 1 {
			spec.Boundary = BoundaryMur1
		}
		for n := rng.Intn(4); n > 0; n-- {
			spec.Objects = append(spec.Objects, randomBox(rng, spec))
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("trial %d: spec invalid: %v", trial, err)
		}
		xlo := rng.Intn(spec.NX)
		xr := grid.Range{Lo: xlo, Hi: xlo + 1 + rng.Intn(spec.NX-xlo)}
		ylo := rng.Intn(spec.NY)
		yr := grid.Range{Lo: ylo, Hi: ylo + 1 + rng.Intn(spec.NY-ylo)}

		fast := newFields(spec, xr, yr, internCoefficients(spec, xr, yr))
		for _, g := range []*grid.G3{fast.Ex, fast.Ey, fast.Ez, fast.Hx, fast.Hy, fast.Hz} {
			randomizeStorage(rng, g)
		}
		ref := cloneFields(fast)

		nxl, nyl := xr.Len(), yr.Len()
		li0 := rng.Intn(nxl + 1)
		li1 := li0 + rng.Intn(nxl-li0+1)
		lj0 := rng.Intn(nyl + 1)
		lj1 := lj0 + rng.Intn(nyl-lj0+1)

		var murFast, murRef *murState
		if spec.Boundary == BoundaryMur1 {
			murFast = newMurState(spec, xr, yr)
			murRef = newMurState(spec, xr, yr)
		}

		check := func(step int, phase string) {
			t.Helper()
			pairs := []struct {
				name   string
				gf, gr *grid.G3
			}{
				{"Ex", fast.Ex, ref.Ex}, {"Ey", fast.Ey, ref.Ey}, {"Ez", fast.Ez, ref.Ez},
				{"Hx", fast.Hx, ref.Hx}, {"Hy", fast.Hy, ref.Hy}, {"Hz", fast.Hz, ref.Hz},
			}
			for _, p := range pairs {
				if !p.gf.Equal(p.gr) {
					t.Fatalf("trial %d step %d after %s: %s diverged (spec %dx%dx%d, block x%v y%v, window [%d,%d)x[%d,%d), boundary %v)",
						trial, step, phase, p.name, spec.NX, spec.NY, spec.NZ,
						xr, yr, li0, li1, lj0, lj1, spec.Boundary)
				}
			}
		}
		for step := 0; step < spec.Steps; step++ {
			if murFast != nil {
				murFast.snapshot(fast.Ey, fast.Ez, fast.Ex)
				murRef.snapshot(ref.Ey, ref.Ez, ref.Ex)
			}
			cf := updateERange(fast, li0, li1, lj0, lj1)
			cr := updateERangeRef(ref, li0, li1, lj0, lj1)
			if cf != cr {
				t.Fatalf("trial %d step %d: E update counts %d vs %d", trial, step, cf, cr)
			}
			if murFast != nil {
				murFast.apply(fast.Ey, fast.Ez, fast.Ex)
				murRef.apply(ref.Ey, ref.Ez, ref.Ex)
			}
			check(step, "E")
			cf = updateHRange(fast, li0, li1, lj0, lj1)
			cr = updateHRangeRef(ref, li0, li1, lj0, lj1)
			if cf != cr {
				t.Fatalf("trial %d step %d: H update counts %d vs %d", trial, step, cf, cr)
			}
			check(step, "H")
		}
	}
}
