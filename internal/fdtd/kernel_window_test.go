package fdtd

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/grid"
)

// mustPanicUnwritten calls upd on the window and fails unless it panics
// and leaves all six field grids as they were.
func mustPanicUnwritten(t *testing.T, name string, upd kernel, f *Fields, w window) {
	t.Helper()
	before := cloneFields(f)
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: window [%d,%d)x[%d,%d) did not panic", name, w.i0, w.i1, w.j0, w.j1)
			}
		}()
		upd(f, w.i0, w.i1, w.j0, w.j1)
	}()
	for _, p := range []struct {
		c    string
		a, b *grid.G3
	}{
		{"Ex", f.Ex, before.Ex}, {"Ey", f.Ey, before.Ey}, {"Ez", f.Ez, before.Ez},
		{"Hx", f.Hx, before.Hx}, {"Hy", f.Hy, before.Hy}, {"Hz", f.Hz, before.Hz},
	} {
		if !slices.Equal(p.a.Data(), p.b.Data()) {
			t.Errorf("%s: %s was written before the panic", name, p.c)
		}
	}
}

// TestKernelWindowProof holds the packed kernels to their one bounds
// proof per window: on an interior block, where every column of a
// window is updated, each kernel panics before it writes anything when
// its window reaches past the local grid on any side, when only the
// neighbour rows its stencils read lie outside the grids (ghostless
// fields), when the six field grids do not share one geometry, and
// when a coefficient row is shorter than NZ.  The full window passes
// the proof.  It runs once per row body.
func TestKernelWindowProof(t *testing.T) {
	spec := SpecSmall()
	xr, yr := grid.Range{Lo: 3, Hi: 9}, grid.Range{Lo: 2, Hi: 7}
	nx, ny, nz := xr.Len(), yr.Len(), spec.NZ
	rng := rand.New(rand.NewSource(37))
	fresh := func() *Fields {
		f := newFields(spec, xr, yr, internCoefficients(spec, xr, yr))
		for _, g := range []*grid.G3{f.Ex, f.Ey, f.Ez, f.Hx, f.Hy, f.Hz} {
			randomizeStorage(rng, g)
		}
		return f
	}
	kernels := []struct {
		name string
		upd  kernel
	}{{"E", updateERange}, {"H", updateHRange}}
	forEachRowBody(t, func(t *testing.T) {
		for _, k := range kernels {
			if got, want := k.upd(fresh(), 0, nx, 0, ny), 3*nx*ny*nz-2*nx*ny; got != want {
				t.Errorf("%s: full interior window updated %d components, want %d", k.name, got, want)
			}
			for side, w := range map[string]window{
				"x below": {-1, nx, 0, ny}, "x above": {0, nx + 1, 0, ny},
				"y below": {0, nx, -1, ny}, "y above": {0, nx, 0, ny + 1},
				"x below, one row": {-1, 0, 0, ny}, "y above, one row": {0, nx, ny, ny + 1},
			} {
				mustPanicUnwritten(t, k.name+" "+side, k.upd, fresh(), w)
			}

			// The window fits the grids, but its neighbour rows do not.
			ghostless := fresh()
			for _, g := range []**grid.G3{&ghostless.Ex, &ghostless.Ey, &ghostless.Ez, &ghostless.Hx, &ghostless.Hy, &ghostless.Hz} {
				*g = grid.New3G(nx, ny, nz, 0, 0, 0)
				randomizeStorage(rng, *g)
			}
			mustPanicUnwritten(t, k.name+" ghostless", k.upd, ghostless, window{0, nx, 0, ny})

			for _, g := range []*grid.G3{grid.New3G(nx, ny, nz+1, 1, 1, 0), grid.New3G(nx, ny, nz, 1, 2, 0)} {
				f := fresh()
				randomizeStorage(rng, g)
				f.Hz = g
				mustPanicUnwritten(t, k.name+" mismatched Hz", k.upd, f, window{0, nx, 0, ny})
			}

			f := fresh()
			f.Coef = internCoefficients(spec, xr, yr)
			last := &f.Coef.sets[len(f.Coef.sets)-1]
			if k.name == "E" {
				last.cb = last.cb[:nz-1]
			} else {
				last.db = last.db[:nz-1]
			}
			mustPanicUnwritten(t, k.name+" short coefficient row", k.upd, f, window{0, nx, 0, ny})
		}
	})
}
