package fdtd

import (
	"math"

	"repro/internal/grid"
)

// faceNormals are the outward normals of the six integration-surface
// faces, in enumeration order: -x, +x, -y, +y, -z, +z.
var faceNormals = [6][3]float64{
	{-1, 0, 0}, {1, 0, 0}, {0, -1, 0}, {0, 1, 0}, {0, 0, -1}, {0, 0, 1},
}

// forEachSurface enumerates the integration-surface points whose x and
// y coordinates lie in [xlo, xhi) x [ylo, yhi), in a fixed global
// order: face-major, then x-major within a face.  It is the order's only
// definition: newFarField lists each rank's points in it once, and the
// step path walks that list.  The sequential program passes the full
// domain; each parallel process passes its block and therefore visits
// its own points in the same relative order as the sequential program
// visits them (px×1 blocks pass the full y range).
func forEachSurface(spec Spec, xlo, xhi, ylo, yhi int, f func(face, i, j, k int)) {
	off := spec.FarField.Offset
	x0, x1 := off, spec.NX-1-off
	y0, y1 := off, spec.NY-1-off
	z0, z1 := off, spec.NZ-1-off
	clampXLo, clampXHi := x0, x1
	if clampXLo < xlo {
		clampXLo = xlo
	}
	if clampXHi > xhi-1 {
		clampXHi = xhi - 1
	}
	clampYLo, clampYHi := y0, y1
	if clampYLo < ylo {
		clampYLo = ylo
	}
	if clampYHi > yhi-1 {
		clampYHi = yhi - 1
	}
	// Faces 0, 1: constant x.
	for face, x := range [2]int{x0, x1} {
		if x < xlo || x >= xhi {
			continue
		}
		for j := clampYLo; j <= clampYHi; j++ {
			for k := z0; k <= z1; k++ {
				f(face, x, j, k)
			}
		}
	}
	// Faces 2, 3: constant y (x-major iteration).
	for fi, y := range [2]int{y0, y1} {
		if y < ylo || y >= yhi {
			continue
		}
		for i := clampXLo; i <= clampXHi; i++ {
			for k := z0; k <= z1; k++ {
				f(2+fi, i, y, k)
			}
		}
	}
	// Faces 4, 5: constant z.
	for fi, z := range [2]int{z0, z1} {
		for i := clampXLo; i <= clampXHi; i++ {
			for j := clampYLo; j <= clampYHi; j++ {
				f(4+fi, i, j, z)
			}
		}
	}
}

// farField accumulates the radiation vector potentials of the
// near-to-far-field transformation: at each time step, every surface
// point contributes its projected equivalent currents (J = n x H,
// M = -n x E) to the potential sample at a future time index determined
// by the point's position along the observation direction — "each
// calculated vector potential is a double sum, over time steps and over
// points on the integration surface".
type farField struct {
	rhat, pol    [3]float64
	minProj      float64
	maxDelay     int
	invDT        float64
	faces        [6]faceWalk // the rank's point table
	A, F         []float64
	compA, compF []float64 // Neumaier compensation terms (compensated mode)
	compensated  bool
}

// surfacePoint is one entry of a rank's point table: the point's
// storage offset, which addresses it in each of the six field grids,
// and its delay.
type surfacePoint struct{ off, delay int32 }

// faceWalk is one face of a rank's point table: the face's points in
// forEachSurface order, the storage of the two tangential components
// of H and of E, and the coefficients of their projections.  A face's
// normal is s·e_a (s = ±1), so with (a, b, c) a cyclic order of the
// axes, J·pol = h_b·(s·pol_c) + h_c·(−s·pol_b) and M·pol =
// e_b·(−s·pol_c) + e_c·(s·pol_b): the normal components of J and M
// are zero and drop out.
type faceWalk struct {
	pts                []surfacePoint
	hb, hc, eb, ec     []float64
	ca0, ca1, cf0, cf1 float64
}

// terms returns J·pol and M·pol at the point with storage offset o.
// Each product equals one product of the full cross-and-dot form
// exactly, since (s·h)·p = h·(s·p) for s = ±1, and sits in an explicit
// float64 conversion so that no build fuses it into an FMA.  The
// dropped products of the normal components are ±0 for a finite field,
// and adding ±0 to a non-zero value is exact, so the sums can differ
// from the full form only in the sign of a zero.  That sign never
// reaches A, F or the compensation terms: they start at +0, and an exact
// cancellation rounds to +0.  A non-finite field, reachable only by a
// spec whose fields overflow, made the full form NaN through 0·Inf; here
// it can give ±Inf.
func (w *faceWalk) terms(o int32) (a, f float64) {
	return float64(w.hb[o]*w.ca0) + float64(w.hc[o]*w.ca1),
		float64(w.eb[o]*w.cf0) + float64(w.ec[o]*w.cf1)
}

// newFarField prepares the accumulators for the given spec and the
// point table of the block that f covers; compensated selects
// Neumaier-compensated accumulation (the "fixed" far field).
func newFarField(spec Spec, compensated bool, f *Fields) *farField {
	ffspec := spec.FarField
	ff := &farField{
		invDT:       1 / spec.DT,
		compensated: compensated,
	}
	dn := norm3(ffspec.Dir)
	pn := norm3(ffspec.Pol)
	for a := 0; a < 3; a++ {
		ff.rhat[a] = ffspec.Dir[a] / dn
		ff.pol[a] = ffspec.Pol[a] / pn
	}
	minP, maxP := math.Inf(1), math.Inf(-1)
	forEachSurface(spec, 0, spec.NX, 0, spec.NY, func(face, i, j, k int) {
		p := ff.proj(i, j, k)
		minP, maxP = math.Min(minP, p), math.Max(maxP, p)
	})
	ff.minProj = minP
	ff.maxDelay = int(math.Round((maxP - minP) * ff.invDT))
	n := spec.Steps + ff.maxDelay + 1
	ff.A = make([]float64, n)
	ff.F = make([]float64, n)
	if compensated {
		ff.compA = make([]float64, n)
		ff.compF = make([]float64, n)
	}

	g := f.Ex
	for _, h := range []*grid.G3{f.Ey, f.Ez, f.Hx, f.Hy, f.Hz} {
		if h.GhostX() != g.GhostX() || h.GhostY() != g.GhostY() || h.GhostZ() != g.GhostZ() ||
			h.StrideX() != g.StrideX() || h.StrideY() != g.StrideY() || len(h.Data()) != len(g.Data()) {
			panic("fdtd: the far field needs the six field grids in one layout")
		}
	}
	if len(g.Data()) > math.MaxInt32 {
		panic("fdtd: field storage exceeds the far field's int32 offsets")
	}
	e := [3][]float64{f.Ex.Data(), f.Ey.Data(), f.Ez.Data()}
	h := [3][]float64{f.Hx.Data(), f.Hy.Data(), f.Hz.Data()}
	for face := range ff.faces {
		a := face / 2
		b, c := (a+1)%3, (a+2)%3
		s := faceNormals[face][a]
		ff.faces[face] = faceWalk{
			hb: h[b], hc: h[c], eb: e[b], ec: e[c],
			ca0: s * ff.pol[c], ca1: -s * ff.pol[b],
			cf0: -s * ff.pol[c], cf1: s * ff.pol[b],
		}
	}
	forEachSurface(spec, f.XR.Lo, f.XR.Hi, f.YR.Lo, f.YR.Hi, func(face, i, j, k int) {
		w := &ff.faces[face]
		off := g.Index(i-f.XR.Lo, j-f.YR.Lo, k)
		w.pts = append(w.pts, surfacePoint{int32(off), int32(ff.delay(i, j, k))})
	})
	return ff
}

func (ff *farField) proj(i, j, k int) float64 {
	return float64(ff.rhat[0]*float64(i)) + float64(ff.rhat[1]*float64(j)) + float64(ff.rhat[2]*float64(k))
}

// delay returns the future-sample offset for a surface point.
// newFarField tabulates it once per point in the point table, which the
// step path reads instead.
func (ff *farField) delay(i, j, k int) int {
	return int(math.Round((ff.proj(i, j, k) - ff.minProj) * ff.invDT))
}

// accumulate adds the step-n contributions of the rank's surface points
// to the potentials, walking the point table face by face, and returns
// the number of points visited (the far-field work units of this step).
// The table holds forEachSurface's order and each point's delay, so the
// walk adds the same terms into the same samples in the same order as
// a per-point enumeration would.  Consecutive points often share a
// sample, so the walk carries the running sample (and its compensation
// term) in locals and stores it once when the sample changes; that
// keeps every sample's sequence of additions unchanged.
func (ff *farField) accumulate(n int) int {
	points := 0
	for i := range ff.faces {
		w := &ff.faces[i]
		if len(w.pts) == 0 {
			continue
		}
		if ff.compensated {
			ff.walkCompensated(n, w)
		} else {
			ff.walk(n, w)
		}
		points += len(w.pts)
	}
	return points
}

func (ff *farField) walk(n int, w *faceWalk) {
	A, F := ff.A, ff.F
	m := n + int(w.pts[0].delay)
	sa, sf := A[m], F[m]
	for _, p := range w.pts {
		if d := n + int(p.delay); d != m {
			A[m], F[m] = sa, sf
			m = d
			sa, sf = A[m], F[m]
		}
		a, f := w.terms(p.off)
		sa += a
		sf += f
	}
	A[m], F[m] = sa, sf
}

func (ff *farField) walkCompensated(n int, w *faceWalk) {
	A, F, cA, cF := ff.A, ff.F, ff.compA, ff.compF
	m := n + int(w.pts[0].delay)
	sa, sf, ca, cf := A[m], F[m], cA[m], cF[m]
	for _, p := range w.pts {
		if d := n + int(p.delay); d != m {
			A[m], F[m], cA[m], cF[m] = sa, sf, ca, cf
			m = d
			sa, sf, ca, cf = A[m], F[m], cA[m], cF[m]
		}
		a, f := w.terms(p.off)
		sa, ca = neumaierAdd(sa, ca, a)
		sf, cf = neumaierAdd(sf, cf, f)
	}
	A[m], F[m], cA[m], cF[m] = sa, sf, ca, cf
}

// neumaierAdd performs one step of Neumaier-compensated accumulation.
func neumaierAdd(sum, comp, x float64) (newSum, newComp float64) {
	t := sum + x
	if math.Abs(sum) >= math.Abs(x) {
		comp += (sum - t) + x
	} else {
		comp += (x - t) + sum
	}
	return t, comp
}

// finalize returns the accumulated potentials; in compensated mode the
// compensation terms are folded in.
func (ff *farField) finalize() (a, f []float64) {
	if !ff.compensated {
		return ff.A, ff.F
	}
	a = make([]float64, len(ff.A))
	f = make([]float64, len(ff.F))
	for i := range a {
		a[i] = ff.A[i] + ff.compA[i]
		f[i] = ff.F[i] + ff.compF[i]
	}
	return a, f
}
