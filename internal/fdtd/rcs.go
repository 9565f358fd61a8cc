package fdtd

import (
	"fmt"
	"math"
	"math/cmplx"
)

// The paper's application description: "By applying a near-field to
// far-field transformation, these fields can also be used to derive far
// fields, e.g., for radar cross section computations."  This file
// performs that final derivation: the time-domain radiation vector
// potentials accumulated by the far-field transform are Fourier-
// transformed and normalised by the source spectrum, yielding a
// radar-cross-section-like frequency response for the observation
// direction.  Every product that feeds a sum sits in an explicit
// float64 conversion, as in yeeRowGeneric, so no build fuses it into an
// FMA.  That pins the products only: math.Sincos stays unpinned, and
// its range reduction carries fused operations on arm64, so the
// response can differ there in the last bits until the repository owns
// its own sine and cosine.

// dft returns the discrete-time Fourier transform of xs at normalised
// frequency f (cycles per time unit), with sample spacing dt.
func dft(xs []float64, f, dt float64) complex128 {
	var acc complex128
	w := -2 * math.Pi * f * dt
	for n, x := range xs {
		s, c := math.Sincos(w * float64(n))
		acc += complex(float64(x*c), float64(x*s))
	}
	return acc
}

// RCSPoint is one sample of the frequency response.
type RCSPoint struct {
	Freq float64 // cycles per unit time (c = cell = 1 units)
	// Sigma is the normalised scattering response: (2 pi f)^2 times the
	// combined far-field potential power, divided by the source pulse's
	// spectral power at the same frequency.
	Sigma float64
}

// RCS derives the radar-cross-section-like frequency response from a
// Version C result at the given frequencies.  It returns an error for
// Version A results (no far field) and for frequencies at which the
// source pulse has effectively no energy (the response would be 0/0).
func (r *Result) RCS(freqs []float64) ([]RCSPoint, error) {
	if r.FarA == nil || r.FarF == nil {
		return nil, fmt.Errorf("fdtd: RCS requires a Version C result with far-field potentials")
	}
	spec := r.Spec
	// Source spectrum over the run length.
	src := make([]float64, spec.Steps)
	energy := 0.0
	for n := range src {
		src[n] = spec.Source.Pulse(n)
		energy += float64(src[n] * src[n])
	}
	out := make([]RCSPoint, 0, len(freqs))
	for _, f := range freqs {
		if f < 0 {
			return nil, fmt.Errorf("fdtd: negative frequency %g", f)
		}
		s := dft(src, f, spec.DT)
		power := float64(real(s)*real(s)) + float64(imag(s)*imag(s))
		// Refuse frequencies where the normalisation would divide by
		// spectral leakage rather than real pulse energy.
		if power < 1e-12*energy {
			return nil, fmt.Errorf("fdtd: source pulse has no energy at frequency %g", f)
		}
		a := dft(r.FarA, f, spec.DT)
		ff := dft(r.FarF, f, spec.DT)
		k := 2 * math.Pi * f
		sigma := k * k * (float64(cmplx.Abs(a)*cmplx.Abs(a)) + float64(cmplx.Abs(ff)*cmplx.Abs(ff))) / power
		out = append(out, RCSPoint{Freq: f, Sigma: sigma})
	}
	return out, nil
}

// SourceBandwidth returns a frequency range [lo, hi] over which the
// spec's source pulse carries meaningful energy, suitable for RCS
// sweeps.  For a Gaussian of width W steps the spectral content falls
// off beyond ~1/(pi W dt); we return a conservative band.
func (s Spec) SourceBandwidth() (lo, hi float64) {
	wTime := s.Source.Width * s.DT
	hi = 1 / (math.Pi * wTime) * 1.5
	lo = hi / 20
	return lo, hi
}
