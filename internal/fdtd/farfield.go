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
// order: face-major, then x-major within a face.  The sequential
// program passes the full domain; each parallel process passes its
// block and therefore visits its own points in the same relative order
// as the sequential program visits them (px×1 blocks pass the full y
// range).
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
	spec         Spec
	rhat, pol    [3]float64
	minProj      float64
	maxDelay     int
	delays       [6][]int32 // per face, every point's delay in visit order
	invDT        float64
	A, F         []float64
	compA, compF []float64 // Neumaier compensation terms (compensated mode)
	compensated  bool
}

// newFarField prepares accumulators for the given spec; compensated
// selects Neumaier-compensated accumulation (the "fixed" far field).
func newFarField(spec Spec, compensated bool) *farField {
	ffspec := spec.FarField
	ff := &farField{
		spec:        spec,
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
		if p < minP {
			minP = p
		}
		if p > maxP {
			maxP = p
		}
	})
	ff.minProj = minP
	ff.maxDelay = int(math.Round((maxP - minP) * ff.invDT))
	// The full-domain enumeration visits each face's points in the
	// row-major order of its two varying axes, the order accumulate
	// indexes the table in.
	forEachSurface(spec, 0, spec.NX, 0, spec.NY, func(face, i, j, k int) {
		ff.delays[face] = append(ff.delays[face], int32(ff.delay(i, j, k)))
	})
	n := spec.Steps + ff.maxDelay + 1
	ff.A = make([]float64, n)
	ff.F = make([]float64, n)
	if compensated {
		ff.compA = make([]float64, n)
		ff.compF = make([]float64, n)
	}
	return ff
}

func (ff *farField) proj(i, j, k int) float64 {
	return float64(ff.rhat[0]*float64(i)) + float64(ff.rhat[1]*float64(j)) + float64(ff.rhat[2]*float64(k))
}

// delay returns the future-sample offset for a surface point.
// newFarField tabulates it once per point in ff.delays, which the step
// path reads instead.
func (ff *farField) delay(i, j, k int) int {
	return int(math.Round((ff.proj(i, j, k) - ff.minProj) * ff.invDT))
}

// addPoint adds one surface point's projected equivalent currents
// (J = n x H, M = -(n x E), both projected onto pol) to the potential
// samples at m, the point's delayed time index.  Every product sits in an
// explicit float64 conversion, as in yeeRowGeneric, so no build fuses a
// cross or dot product into an FMA and the potentials carry the same
// bits on every architecture.
func (ff *farField) addPoint(face, m int, e0, e1, e2, h0, h1, h2 float64) {
	nv := faceNormals[face]
	jx := float64(nv[1]*h2) - float64(nv[2]*h1)
	jy := float64(nv[2]*h0) - float64(nv[0]*h2)
	jz := float64(nv[0]*h1) - float64(nv[1]*h0)
	mx := -(float64(nv[1]*e2) - float64(nv[2]*e1))
	my := -(float64(nv[2]*e0) - float64(nv[0]*e2))
	mz := -(float64(nv[0]*e1) - float64(nv[1]*e0))
	a := float64(jx*ff.pol[0]) + float64(jy*ff.pol[1]) + float64(jz*ff.pol[2])
	f := float64(mx*ff.pol[0]) + float64(my*ff.pol[1]) + float64(mz*ff.pol[2])
	if ff.compensated {
		ff.A[m], ff.compA[m] = neumaierAdd(ff.A[m], ff.compA[m], a)
		ff.F[m], ff.compF[m] = neumaierAdd(ff.F[m], ff.compF[m], f)
	} else {
		ff.A[m] += a
		ff.F[m] += f
	}
}

// accumulate adds the step-n contributions of the surface points in
// the block xr x yr.  The field grids are local sections whose local
// indices are global minus the block origin.  It returns the number of
// points visited (the far-field work units of this step).
//
// The loops repeat forEachSurface's clamped enumeration — same faces,
// same order, same per-point arithmetic (via addPoint) — but read the
// fields through contiguous row views on the constant-x and constant-y
// faces, where the inner loop runs along z, instead of six At calls per
// point, and read each point's delay from its face's table instead of
// recomputing it.  Because neither the visit order nor any expression
// changes, the accumulated potentials stay bitwise identical to the
// per-point form; forEachSurface remains the order's definition and
// serves the setup scans in newFarField.
func (ff *farField) accumulate(n int, ex, ey, ez, hx, hy, hz *grid.G3, xr, yr grid.Range) int {
	spec := ff.spec
	off := spec.FarField.Offset
	x0, x1 := off, spec.NX-1-off
	y0, y1 := off, spec.NY-1-off
	z0, z1 := off, spec.NZ-1-off
	nz := z1 - z0 + 1
	ny := y1 - y0 + 1
	clampXLo, clampXHi := x0, x1
	if clampXLo < xr.Lo {
		clampXLo = xr.Lo
	}
	if clampXHi > xr.Hi-1 {
		clampXHi = xr.Hi - 1
	}
	clampYLo, clampYHi := y0, y1
	if clampYLo < yr.Lo {
		clampYLo = yr.Lo
	}
	if clampYHi > yr.Hi-1 {
		clampYHi = yr.Hi - 1
	}
	points := 0
	// Faces 0, 1: constant x; the k run is a contiguous row segment, and
	// so is its run of the (j, k) delay table.
	for face, x := range [2]int{x0, x1} {
		if x < xr.Lo || x >= xr.Hi {
			continue
		}
		li := x - xr.Lo
		for j := clampYLo; j <= clampYHi; j++ {
			lj := j - yr.Lo
			exR := ex.RowFrom(li, lj, z0, nz)
			eyR := ey.RowFrom(li, lj, z0, nz)[:len(exR)]
			ezR := ez.RowFrom(li, lj, z0, nz)[:len(exR)]
			hxR := hx.RowFrom(li, lj, z0, nz)[:len(exR)]
			hyR := hy.RowFrom(li, lj, z0, nz)[:len(exR)]
			hzR := hz.RowFrom(li, lj, z0, nz)[:len(exR)]
			dR := ff.delays[face][(j-y0)*nz:][:len(exR)]
			for kk := range exR {
				ff.addPoint(face, n+int(dR[kk]), exR[kk], eyR[kk], ezR[kk], hxR[kk], hyR[kk], hzR[kk])
			}
			points += len(exR)
		}
	}
	// Faces 2, 3: constant y (x-major iteration), contiguous k runs of
	// the fields and of the (i, k) delay table.
	for fi, y := range [2]int{y0, y1} {
		if y < yr.Lo || y >= yr.Hi {
			continue
		}
		lj := y - yr.Lo
		for i := clampXLo; i <= clampXHi; i++ {
			li := i - xr.Lo
			exR := ex.RowFrom(li, lj, z0, nz)
			eyR := ey.RowFrom(li, lj, z0, nz)[:len(exR)]
			ezR := ez.RowFrom(li, lj, z0, nz)[:len(exR)]
			hxR := hx.RowFrom(li, lj, z0, nz)[:len(exR)]
			hyR := hy.RowFrom(li, lj, z0, nz)[:len(exR)]
			hzR := hz.RowFrom(li, lj, z0, nz)[:len(exR)]
			dR := ff.delays[2+fi][(i-x0)*nz:][:len(exR)]
			for kk := range exR {
				ff.addPoint(2+fi, n+int(dR[kk]), exR[kk], eyR[kk], ezR[kk], hxR[kk], hyR[kk], hzR[kk])
			}
			points += len(exR)
		}
	}
	// Faces 4, 5: constant z; the j loop strides across rows, so each
	// point is a single-element read at the fixed k, while the (i, j)
	// delay table is still read in a contiguous run.
	for fi, z := range [2]int{z0, z1} {
		for i := clampXLo; i <= clampXHi; i++ {
			li := i - xr.Lo
			dR := ff.delays[4+fi][(i-x0)*ny:]
			for j := clampYLo; j <= clampYHi; j++ {
				lj := j - yr.Lo
				ff.addPoint(4+fi, n+int(dR[j-y0]),
					ex.At(li, lj, z), ey.At(li, lj, z), ez.At(li, lj, z),
					hx.At(li, lj, z), hy.At(li, lj, z), hz.At(li, lj, z))
				points++
			}
		}
	}
	return points
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
