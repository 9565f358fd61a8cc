package fdtd

import (
	"math"
	"testing"
)

func TestPulseShapes(t *testing.T) {
	g := SourceSpec{Amplitude: 1, Delay: 10, Width: 3, Shape: PulseGaussian}
	r := SourceSpec{Amplitude: 1, Delay: 10, Width: 3, Shape: PulseRicker}
	if g.Pulse(10) != 1 || r.Pulse(10) != 1 {
		t.Fatal("both pulses peak at the delay")
	}
	// The Ricker wavelet has (near-)zero DC content; the Gaussian does not.
	sumG, sumR := 0.0, 0.0
	for n := 0; n < 40; n++ {
		sumG += g.Pulse(n)
		sumR += r.Pulse(n)
	}
	// (The residual Ricker DC comes from truncating the wavelet's tails
	// at the run boundaries.)
	if math.Abs(sumR) > 1e-4*math.Abs(sumG) {
		t.Fatalf("Ricker DC %g should be negligible vs Gaussian %g", sumR, sumG)
	}
	if PulseGaussian.String() != "gaussian" || PulseRicker.String() != "ricker" {
		t.Fatal("pulse shape names")
	}
	if SourcePoint.String() != "point" || SourcePlaneX.String() != "plane-x" {
		t.Fatal("source kind names")
	}
}

func TestRickerLeavesNoStaticResidue(t *testing.T) {
	mk := func(shape PulseShape) Spec {
		s := murVacuumSpec(BoundaryMur1, 240)
		s.Source.Shape = shape
		return s
	}
	gauss, err := RunSequential(mk(PulseGaussian))
	if err != nil {
		t.Fatal(err)
	}
	ricker, err := RunSequential(mk(PulseRicker))
	if err != nil {
		t.Fatal(err)
	}
	// Late-time probe MEAN: the Gaussian leaves a static offset; the
	// Ricker's leftover ringing oscillates about zero, so its mean is
	// far smaller.
	mean := func(r *Result) float64 {
		late := r.Probe[len(r.Probe)*3/4:]
		s := 0.0
		for _, v := range late {
			s += v
		}
		return math.Abs(s / float64(len(late)))
	}
	mG, mR := mean(gauss), mean(ricker)
	if mR > mG/10 {
		t.Fatalf("Ricker residue %g should be far below Gaussian %g", mR, mG)
	}
}

func TestPlaneSourceExcitesWholePlane(t *testing.T) {
	spec := SpecSmallA()
	spec.Source.Kind = SourcePlaneX
	spec.Steps = 3
	res, err := RunSequential(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Every interior Ez cell in the source plane should be non-zero.
	i := spec.Source.I
	for j := 1; j < spec.NY; j++ {
		for k := 0; k < spec.NZ; k++ {
			if res.Ez.At(i, j, k) == 0 {
				t.Fatalf("plane source missed (%d,%d,%d)", i, j, k)
			}
		}
	}
	// A cell well off the plane (x-direction) is still quiet after 3 steps.
	if res.Ez.At(0, spec.NY/2, spec.NZ/2) != 0 {
		t.Fatal("signal travelled impossibly fast")
	}
}

func TestRCSBasics(t *testing.T) {
	spec := SpecSmall()
	spec.Steps = 48
	res, err := RunSequential(spec)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := spec.SourceBandwidth()
	if lo <= 0 || hi <= lo {
		t.Fatalf("bandwidth [%g, %g]", lo, hi)
	}
	freqs := []float64{lo, (lo + hi) / 2, hi}
	pts, err := res.RCS(freqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	any := false
	for i, p := range pts {
		if p.Freq != freqs[i] {
			t.Fatalf("freq mismatch: %v", p)
		}
		if p.Sigma < 0 || math.IsNaN(p.Sigma) {
			t.Fatalf("bad sigma: %v", p)
		}
		if p.Sigma > 0 {
			any = true
		}
	}
	if !any {
		t.Fatal("scatterers present but zero response everywhere")
	}
}

func TestRCSErrors(t *testing.T) {
	a, err := RunSequential(SpecSmallA())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.RCS([]float64{0.05}); err == nil {
		t.Fatal("Version A has no far field")
	}
	c, err := RunSequential(SpecSmall())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RCS([]float64{-1}); err == nil {
		t.Fatal("negative frequency should error")
	}
	// A wide, fully contained pulse has essentially no energy near the
	// Nyquist limit.  (The delay and step count matter: a truncated
	// pulse is broadband.)
	wide := SpecSmall()
	wide.Source.Width = 8
	wide.Source.Delay = 32
	wide.Steps = 80
	cw, err := RunSequential(wide)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cw.RCS([]float64{0.49}); err == nil {
		t.Fatal("frequency with no source energy should error")
	}
}
