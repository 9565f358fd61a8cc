package fdtd

import (
	"fmt"
	"math"

	"repro/internal/grid"
	"repro/internal/mesh"
)

// Result is the observable outcome of an FDTD run: the final fields,
// the probe time series, and (Version C) the far-field potentials.
type Result struct {
	Spec                   Spec
	Ex, Ey, Ez, Hx, Hy, Hz *grid.G3
	Probe                  []float64
	FarA, FarF             []float64
	// Work is the number of work units performed (field-component
	// updates plus far-field point contributions); it drives the
	// machine performance model's calibration.
	Work float64
}

// NearFieldEqual reports bitwise equality of the final fields and the
// probe series — the paper's test for the near-field calculations.
func (r *Result) NearFieldEqual(o *Result) bool {
	if len(r.Probe) != len(o.Probe) {
		return false
	}
	for i := range r.Probe {
		if r.Probe[i] != o.Probe[i] {
			return false
		}
	}
	return r.Ex.Equal(o.Ex) && r.Ey.Equal(o.Ey) && r.Ez.Equal(o.Ez) &&
		r.Hx.Equal(o.Hx) && r.Hy.Equal(o.Hy) && r.Hz.Equal(o.Hz)
}

// FarFieldEqual reports bitwise equality of the far-field potentials.
func (r *Result) FarFieldEqual(o *Result) bool {
	if len(r.FarA) != len(o.FarA) || len(r.FarF) != len(o.FarF) {
		return false
	}
	for i := range r.FarA {
		if r.FarA[i] != o.FarA[i] {
			return false
		}
	}
	for i := range r.FarF {
		if r.FarF[i] != o.FarF[i] {
			return false
		}
	}
	return true
}

// FarFieldMaxRelDiff returns the maximum relative difference between
// two runs' far-field potentials, scaled by the largest magnitude in
// the reference series.
func (r *Result) FarFieldMaxRelDiff(o *Result) float64 {
	scale := 0.0
	for _, v := range r.FarA {
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	for _, v := range r.FarF {
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	if scale == 0 {
		scale = 1
	}
	max := 0.0
	for i := range r.FarA {
		if d := math.Abs(r.FarA[i]-o.FarA[i]) / scale; d > max {
			max = d
		}
	}
	for i := range r.FarF {
		if d := math.Abs(r.FarF[i]-o.FarF[i]) / scale; d > max {
			max = d
		}
	}
	return max
}

// FieldHash digests the bit patterns of the six final field grids
// (Ex, Ey, Ez, Hx, Hy, Hz; a grid the result does not hold is skipped):
// each pencil, the z-run at one (i, j), is hashed word by word and mixed
// with its key (field, i, j), and the keyed pencil hashes are added
// modulo 2^64 (digest.go).  Two field sets that differ anywhere (one
// bit, two sign flips, values or pencils swapped, a pencil moved to
// another field) get the same digest with probability about 2^-64, as
// for a random 64-bit function.  The sum is the same in any order, so
// the pencils of each px-by-py block can be digested apart and added.
// It is the service's field_hash and the near-field digest of the
// committed identity goldens.
func (r *Result) FieldHash() uint64 {
	var sum uint64
	for f, g := range [...]*grid.G3{r.Ex, r.Ey, r.Ez, r.Hx, r.Hy, r.Hz} {
		if g == nil {
			continue
		}
		for i := 0; i < g.NX(); i++ {
			for j := 0; j < g.NY(); j++ {
				sum += pencilDigest(g.Pencil(i, j), f, i, j)
			}
		}
	}
	return sum
}

// RunSequential executes the original sequential program: the one
// program (program.rank) on the trivial decomposition — a single block
// owning the whole domain, no neighbours, no messages.  This is the
// starting point of the refinement pipeline; the archetype versions
// differ from it only in the decomposition they pass, and are measured
// against it.
func RunSequential(spec Spec) (*Result, error) {
	return RunSequentialOpts(spec, false)
}

// RunSequentialOpts is RunSequential with the far-field accumulation
// mode exposed: compensated=true uses Neumaier accumulation (the
// high-accuracy reference for the far-field divergence analysis).
func RunSequentialOpts(spec Spec, compensated bool) (*Result, error) {
	pr, err := plan(spec, 1, 1, sequentialOptions(compensated))
	if err != nil {
		return nil, err
	}
	return pr.exec(mesh.Sim)
}

// sequentialOptions are the options under which the one program is the
// sequential program: no host/grid split, one thread.  Its one block has
// no neighbours, so each half-step updates a single window.
func sequentialOptions(compensated bool) Options {
	return Options{Mesh: mesh.Options{Workers: 1}, FarFieldCompensated: compensated}
}

// String summarises a result for diagnostics.
func (r *Result) String() string {
	kind := "A (near field)"
	if r.Spec.IsVersionC() {
		kind = "C (near + far field)"
	}
	return fmt.Sprintf("fdtd version %s %dx%dx%d steps=%d work=%.0f",
		kind, r.Spec.NX, r.Spec.NY, r.Spec.NZ, r.Spec.Steps, r.Work)
}
