// Package fdtd implements the electromagnetics application of the
// paper's experiments: a three-dimensional finite-difference
// time-domain (FDTD) solver modelling transient electromagnetic
// scattering from objects of arbitrary shape and composition
// (frequency-independent dielectric and magnetic materials), after
// Kunz & Luebbers.
//
// Two versions mirror the paper's §4.1:
//
//   - Version A performs only the near-field calculations: a
//     time-stepped simulation of the electric and magnetic fields over
//     a 3-D grid (Yee leapfrog updates).
//   - Version C adds the far-field calculations: radiation vector
//     potentials computed by integrating equivalent currents over a
//     closed (Huygens) surface near the grid boundary; each potential
//     sample is a double sum over time steps and surface points.
//
// Each version exists in three builds — RunSequential (the "original
// sequential program"), and RunArchetype under mesh.Sim (the sequential
// simulated-parallel version) or mesh.Par (the real parallel version) —
// which are one program (program.rank in step.go) on different
// decompositions: the sequential build is the single block owning the
// whole domain; the archetype builds distribute x-slabs (or 2-D blocks)
// with a one-plane ghost boundary, exactly the mesh-archetype strategy
// of §4.3.
package fdtd

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
)

// PulseShape selects the source waveform.
type PulseShape int

// Pulse shapes.
const (
	// PulseGaussian is amplitude * exp(-u^2) with u = (n-Delay)/Width.
	// Its spectrum includes DC, which leaves a static near-field
	// residue around the source.
	PulseGaussian PulseShape = iota
	// PulseRicker is the differentiated-Gaussian ("Mexican hat")
	// wavelet amplitude * (1-2u^2) exp(-u^2): zero DC content, so the
	// field returns to zero after the pulse leaves — the usual choice
	// for scattering runs with absorbing boundaries.
	PulseRicker
)

func (p PulseShape) String() string {
	switch p {
	case PulseGaussian:
		return "gaussian"
	case PulseRicker:
		return "ricker"
	}
	return "PulseShape(?)"
}

// SourceKind selects the source geometry.
type SourceKind int

// Source geometries.
const (
	// SourcePoint excites Ez at the single cell (I, J, K).
	SourcePoint SourceKind = iota
	// SourcePlaneX excites Ez across the whole y-z plane at x = I,
	// launching an approximately plane wave along x.
	SourcePlaneX
)

func (k SourceKind) String() string {
	switch k {
	case SourcePoint:
		return "point"
	case SourcePlaneX:
		return "plane-x"
	}
	return "SourceKind(?)"
}

// SourceSpec is a soft excitation added to Ez: a point or plane source
// with a Gaussian or Ricker time profile.
type SourceSpec struct {
	I, J, K   int
	Amplitude float64
	Delay     float64
	Width     float64
	Shape     PulseShape
	Kind      SourceKind
}

// Pulse returns the source value at step n.  The Ricker product 2u^2
// sits in an explicit float64 conversion so no build fuses 1 - 2u^2
// into an FMA.
func (s SourceSpec) Pulse(n int) float64 {
	u := (float64(n) - s.Delay) / s.Width
	switch s.Shape {
	case PulseRicker:
		return s.Amplitude * (1 - float64(2*u*u)) * math.Exp(-u*u)
	default:
		return s.Amplitude * math.Exp(-u*u)
	}
}

// Object is an axis-aligned material box: cells with I0<=i<I1 (etc.)
// take the given material parameters.  Later objects override earlier
// ones.
type Object struct {
	I0, I1, J0, J1, K0, K1 int
	EpsR                   float64 // relative permittivity
	MuR                    float64 // relative permeability
	Sigma                  float64 // electric conductivity
	SigmaM                 float64 // magnetic loss
}

func (o Object) contains(i, j, k int) bool {
	return i >= o.I0 && i < o.I1 && j >= o.J0 && j < o.J1 && k >= o.K0 && k < o.K1
}

// FarFieldSpec configures the near-to-far-field transformation of
// Version C.
type FarFieldSpec struct {
	// Offset places the closed integration surface Offset cells inside
	// the grid boundary on every side.
	Offset int
	// Dir is the (un-normalised) observation direction r-hat.
	Dir [3]float64
	// Pol is the (un-normalised) polarisation vector the equivalent
	// currents are projected onto.
	Pol [3]float64
}

// Spec describes one FDTD run.  A nil FarField makes it a Version A
// (near-field only) run; non-nil makes it Version C.
type Spec struct {
	NX, NY, NZ int
	Steps      int
	// DT is the time step in units where c = 1 and the cell size is 1;
	// stability requires DT < 1/sqrt(3).
	DT       float64
	Source   SourceSpec
	Probe    [3]int // Ez is sampled here every step
	Objects  []Object
	FarField *FarFieldSpec
	// Boundary selects the outer-boundary treatment; the zero value is
	// BoundaryPEC (reflecting).
	Boundary BoundaryKind
}

// Allocation bounds of Validate.  A run allocates six float64 field
// grids of NX*NY*NZ cells up front, and a Version C run two far-field
// series of about Steps + (NX+NY+NZ)/DT samples; a spec past these
// bounds would stop the whole process with an unrecoverable
// out-of-memory error instead of failing as a bad spec.  Every preset
// is far inside them.
const (
	MaxCells           = 1 << 24 // 256^3; six grids are 768 MiB
	MaxFarFieldSamples = 1 << 24 // 128 MiB per series
)

// Validate reports the first structural problem with the spec.
func (s Spec) Validate() error {
	if s.NX < 4 || s.NY < 4 || s.NZ < 4 {
		return fmt.Errorf("fdtd: grid %dx%dx%d too small (need >= 4 per axis)", s.NX, s.NY, s.NZ)
	}
	if s.NX > MaxCells || s.NY > MaxCells/s.NX || s.NZ > MaxCells/(s.NX*s.NY) {
		return fmt.Errorf("fdtd: grid %dx%dx%d exceeds %d cells", s.NX, s.NY, s.NZ, MaxCells)
	}
	if s.Steps <= 0 {
		return fmt.Errorf("fdtd: Steps must be positive, got %d", s.Steps)
	}
	if s.DT <= 0 || s.DT >= 1/math.Sqrt(3) {
		return fmt.Errorf("fdtd: DT=%g violates the Courant stability bound 1/sqrt(3)", s.DT)
	}
	if !s.inGrid(s.Source.I, s.Source.J, s.Source.K) {
		return fmt.Errorf("fdtd: source (%d,%d,%d) outside grid", s.Source.I, s.Source.J, s.Source.K)
	}
	if !s.inGrid(s.Probe[0], s.Probe[1], s.Probe[2]) {
		return fmt.Errorf("fdtd: probe %v outside grid", s.Probe)
	}
	if s.Source.Width <= 0 {
		return fmt.Errorf("fdtd: source width must be positive")
	}
	if ff := s.FarField; ff != nil {
		if ff.Offset < 1 {
			return fmt.Errorf("fdtd: far-field surface offset must be >= 1")
		}
		if s.NX <= 2*ff.Offset+1 || s.NY <= 2*ff.Offset+1 || s.NZ <= 2*ff.Offset+1 {
			return fmt.Errorf("fdtd: far-field offset %d leaves no surface inside %dx%dx%d",
				ff.Offset, s.NX, s.NY, s.NZ)
		}
		if norm3(ff.Dir) == 0 || norm3(ff.Pol) == 0 {
			return fmt.Errorf("fdtd: far-field direction and polarisation must be non-zero")
		}
		// The surface's delay span is at most its diameter over DT.
		if float64(s.Steps)+float64(s.NX+s.NY+s.NZ)/s.DT > MaxFarFieldSamples {
			return fmt.Errorf("fdtd: far field of %d steps at DT=%g exceeds %d samples", s.Steps, s.DT, MaxFarFieldSamples)
		}
	}
	return nil
}

func (s Spec) inGrid(i, j, k int) bool {
	return i >= 0 && i < s.NX && j >= 0 && j < s.NY && k >= 0 && k < s.NZ
}

// IsVersionC reports whether the spec includes far-field calculations.
func (s Spec) IsVersionC() bool { return s.FarField != nil }

// norm3 is the Euclidean norm, its products pinned against FMA fusion
// like every far-field product it normalises for.
func norm3(v [3]float64) float64 {
	return math.Sqrt(float64(v[0]*v[0]) + float64(v[1]*v[1]) + float64(v[2]*v[2]))
}

// material returns the material parameters at a global cell.
func (s Spec) material(i, j, k int) (epsR, muR, sigma, sigmaM float64) {
	epsR, muR, sigma, sigmaM = 1, 1, 0, 0
	for _, o := range s.Objects {
		if o.contains(i, j, k) {
			epsR, muR, sigma, sigmaM = o.EpsR, o.MuR, o.Sigma, o.SigmaM
		}
	}
	return epsR, muR, sigma, sigmaM
}

// Coefficients returns the four Yee update coefficients for a global
// cell.  Both the sequential program and the distributed one call this
// same function, so duplicated computation of the material grids is
// bitwise consistent.
func (s Spec) Coefficients(i, j, k int) (ca, cb, da, db float64) {
	epsR, muR, sigma, sigmaM := s.material(i, j, k)
	le := sigma * s.DT / (2 * epsR)
	ca = (1 - le) / (1 + le)
	cb = (s.DT / epsR) / (1 + le)
	lm := sigmaM * s.DT / (2 * muR)
	da = (1 - lm) / (1 + lm)
	db = (s.DT / muR) / (1 + lm)
	return ca, cb, da, db
}

// Cells returns the number of grid cells.
func (s Spec) Cells() int { return s.NX * s.NY * s.NZ }

// Fingerprint digests every run-defining field of the spec into 64
// bits.  Checkpoints embed it so that resuming a run under a different
// spec — which would silently produce garbage — fails fast instead.
// Two specs that fingerprint equal describe the same computation.
func (s Spec) Fingerprint() uint64 {
	h := fnv.New64a()
	w := func(vs ...any) {
		for _, v := range vs {
			binary.Write(h, binary.LittleEndian, v)
		}
	}
	w(int64(s.NX), int64(s.NY), int64(s.NZ), int64(s.Steps), s.DT)
	w(int64(s.Source.I), int64(s.Source.J), int64(s.Source.K),
		s.Source.Amplitude, s.Source.Delay, s.Source.Width,
		int64(s.Source.Shape), int64(s.Source.Kind))
	w(int64(s.Probe[0]), int64(s.Probe[1]), int64(s.Probe[2]))
	w(int64(len(s.Objects)))
	for _, o := range s.Objects {
		w(int64(o.I0), int64(o.I1), int64(o.J0), int64(o.J1), int64(o.K0), int64(o.K1),
			o.EpsR, o.MuR, o.Sigma, o.SigmaM)
	}
	if ff := s.FarField; ff != nil {
		w(int64(1), int64(ff.Offset),
			ff.Dir[0], ff.Dir[1], ff.Dir[2], ff.Pol[0], ff.Pol[1], ff.Pol[2])
	} else {
		w(int64(0))
	}
	w(int64(s.Boundary))
	return h.Sum64()
}

// --- Experiment presets -------------------------------------------------

// SpecTable1 is the paper's Table 1 workload: Version C (near + far
// field) on a 33x33x33 grid for 128 steps.
func SpecTable1() Spec {
	return Spec{
		NX: 33, NY: 33, NZ: 33,
		Steps: 128,
		DT:    0.5,
		Source: SourceSpec{
			I: 16, J: 16, K: 16,
			Amplitude: 1, Delay: 20, Width: 6,
		},
		Probe: [3]int{20, 16, 16},
		Objects: []Object{
			// A dielectric block and a magnetic block: "scattering from
			// frequency-independent dielectric and magnetic materials".
			{I0: 10, I1: 16, J0: 10, J1: 22, K0: 10, K1: 22, EpsR: 4, MuR: 1, Sigma: 0.02},
			{I0: 18, I1: 24, J0: 12, J1: 20, K0: 12, K1: 20, EpsR: 1, MuR: 2, SigmaM: 0.01},
		},
		FarField: &FarFieldSpec{
			Offset: 3,
			Dir:    [3]float64{1, 0.5, 0.25},
			Pol:    [3]float64{0, 1, -0.5},
		},
	}
}

// SpecFigure2 is the paper's Figure 2 workload: Version A (near field
// only) on a 66x66x66 grid for 512 steps.
func SpecFigure2() Spec {
	return Spec{
		NX: 66, NY: 66, NZ: 66,
		Steps: 512,
		DT:    0.5,
		Source: SourceSpec{
			I: 33, J: 33, K: 33,
			Amplitude: 1, Delay: 30, Width: 8,
		},
		Probe: [3]int{44, 33, 33},
		Objects: []Object{
			{I0: 20, I1: 33, J0: 20, J1: 46, K0: 20, K1: 46, EpsR: 4, MuR: 1, Sigma: 0.02},
			{I0: 36, I1: 48, J0: 24, J1: 42, K0: 24, K1: 42, EpsR: 1, MuR: 2, SigmaM: 0.01},
		},
	}
}

// SpecSmall is a fast, deliberately asymmetric workload for tests:
// Version C on a 13x10x9 grid.
func SpecSmall() Spec {
	return Spec{
		NX: 13, NY: 10, NZ: 9,
		Steps: 16,
		DT:    0.5,
		Source: SourceSpec{
			I: 6, J: 5, K: 4,
			Amplitude: 1, Delay: 5, Width: 2,
		},
		Probe: [3]int{8, 5, 4},
		Objects: []Object{
			{I0: 3, I1: 6, J0: 3, J1: 7, K0: 2, K1: 6, EpsR: 3, MuR: 1, Sigma: 0.05},
			{I0: 8, I1: 11, J0: 4, J1: 8, K0: 3, K1: 7, EpsR: 1, MuR: 2.5, SigmaM: 0.02},
		},
		FarField: &FarFieldSpec{
			Offset: 2,
			Dir:    [3]float64{1, 0.3, 0.2},
			Pol:    [3]float64{0, 1, 0},
		},
	}
}

// SpecSmallA is SpecSmall without far-field calculations (Version A).
func SpecSmallA() Spec {
	s := SpecSmall()
	s.FarField = nil
	return s
}
