package fdtd

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/grid"
)

// addPoint is the oracle of the far-field walk: one surface point's
// projected equivalent currents (J = n x H, M = -(n x E), both projected
// onto pol) as full cross and dot products, added to the potential
// samples at m, the point's delayed time index.
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

// farFieldValue draws a finite field value: mostly ordinary random
// values, and otherwise a signed zero, a subnormal or a value near
// overflow.
func farFieldValue(rng *rand.Rand) float64 {
	sign := float64(1 - 2*rng.Intn(2))
	switch rng.Intn(8) {
	case 0:
		return math.Copysign(0, sign)
	case 1:
		return sign * math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1<<20))
	case 2:
		return sign * math.MaxFloat64 / (1 + rng.Float64())
	default:
		return rng.NormFloat64()
	}
}

// sampleBits returns the bits of sample 0 of the potentials and, in
// compensated mode, of its compensation terms.
func (ff *farField) sampleBits() [4]uint64 {
	b := [4]uint64{math.Float64bits(ff.A[0]), math.Float64bits(ff.F[0])}
	if ff.compensated {
		b[2], b[3] = math.Float64bits(ff.compA[0]), math.Float64bits(ff.compF[0])
	}
	return b
}

// TestFarFieldFaceTerms holds the walk's two-term projections
// (faceWalk.terms), added by the walk itself, bitwise to the three-term cross-and-dot form of
// addPoint, for every face and both accumulation modes: each run of
// points added into one sample leaves the same sample and compensation
// bits.  The fields are finite, but include signed zeros, subnormals
// and values near overflow, whose sums overflow to ±Inf and then cancel
// to NaN.  One pol is generic and one has zero components, whose
// coefficients are zero.  Non-finite fields are left out: there the
// full form's 0·Inf products give NaN, and the two-term form ±Inf.
func TestFarFieldFaceTerms(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	for name, spec := range map[string]Spec{"small": SpecSmall(), "negdir": delaySpecs()["negdir"]} {
		full, fullY := grid.Range{Lo: 0, Hi: spec.NX}, grid.Range{Lo: 0, Hi: spec.NY}
		f := newFields(spec, full, fullY, nil)
		g := [6][]float64{f.Ex.Data(), f.Ey.Data(), f.Ez.Data(), f.Hx.Data(), f.Hy.Data(), f.Hz.Data()}
		for _, comp := range []bool{false, true} {
			got, want := newFarField(spec, comp, f), newFarField(spec, comp, f)
			for face := range got.faces {
				// The face's walk over one point, storage offset 0.
				w := got.faces[face]
				w.pts = []surfacePoint{{off: 0, delay: 0}}
				for trial := 0; trial < 2000; trial++ {
					for _, ff := range []*farField{got, want} {
						ff.A[0], ff.F[0] = 0, 0
						if comp {
							ff.compA[0], ff.compF[0] = 0, 0
						}
					}
					for pt, npts := 0, 1+rng.Intn(4); pt < npts; pt++ {
						var v [6]float64
						for c := range v {
							v[c] = farFieldValue(rng)
							g[c][0] = v[c]
						}
						if comp {
							got.walkCompensated(0, &w)
						} else {
							got.walk(0, &w)
						}
						want.addPoint(face, 0, v[0], v[1], v[2], v[3], v[4], v[5])
						if gb, wb := got.sampleBits(), want.sampleBits(); gb != wb {
							t.Fatalf("%s face %d compensated=%v point %d, fields %v: bits %x, addPoint %x",
								name, face, comp, pt, v, gb, wb)
						}
					}
				}
			}
		}
	}
}
