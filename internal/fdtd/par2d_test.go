package fdtd

import (
	"math/rand"
	"testing"

	"repro/internal/machine"
	"repro/internal/mesh"
)

func mustArch2D(t *testing.T, spec Spec, px, py int, mode mesh.Mode, opt Options) *Result {
	t.Helper()
	res, err := RunArchetype2D(spec, px, py, mode, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestNearField2DIdentical extends experiment E1 to the general 2-D
// block distribution: near-field results remain bitwise identical to
// the original sequential program for every process-grid shape.
func TestNearField2DIdentical(t *testing.T) {
	for _, spec := range []Spec{SpecSmallA(), SpecSmall()} {
		seq := mustSeq(t, spec)
		for _, pq := range [][2]int{{1, 1}, {2, 1}, {1, 2}, {2, 2}, {3, 2}, {2, 3}, {4, 3}} {
			arch := mustArch2D(t, spec, pq[0], pq[1], mesh.Sim, DefaultOptions())
			if !seq.NearFieldEqual(arch) {
				t.Fatalf("%dx%d versionC=%v: 2-D near field differs from sequential",
					pq[0], pq[1], spec.IsVersionC())
			}
			if arch.Work != seq.Work {
				t.Fatalf("%dx%d: work %v != %v", pq[0], pq[1], arch.Work, seq.Work)
			}
		}
	}
}

// Test2DMatches1DSpecialCase: py == 1 must agree bitwise with the 1-D
// slab build, far field included (same partition of the double sum).
func Test2DMatches1DSpecialCase(t *testing.T) {
	spec := SpecSmall()
	oneD := mustArch(t, spec, 3, mesh.Sim, DefaultOptions())
	twoD := mustArch2D(t, spec, 3, 1, mesh.Sim, DefaultOptions())
	if !oneD.NearFieldEqual(twoD) {
		t.Fatal("2-D(px,1) near field differs from 1-D slabs")
	}
	if !oneD.FarFieldEqual(twoD) {
		t.Fatal("2-D(px,1) far field differs from 1-D slabs")
	}
}

func TestParallel2DIdenticalToSSP2D(t *testing.T) {
	spec := SpecSmall()
	ssp := mustArch2D(t, spec, 2, 2, mesh.Sim, DefaultOptions())
	for rep := 0; rep < 3; rep++ {
		par := mustArch2D(t, spec, 2, 2, mesh.Par, DefaultOptions())
		if !ssp.NearFieldEqual(par) || !ssp.FarFieldEqual(par) {
			t.Fatalf("rep %d: 2-D parallel differs from 2-D SSP", rep)
		}
	}
}

func TestFarField2DReorderWithinRounding(t *testing.T) {
	spec := SpecSmall()
	seq := mustSeq(t, spec)
	arch := mustArch2D(t, spec, 2, 3, mesh.Sim, DefaultOptions())
	if d := seq.FarFieldMaxRelDiff(arch); d > 1e-6 {
		t.Fatalf("2-D far-field deviation %g too large for pure reordering", d)
	}
	// The compensated build stays accurate under 2-D partitioning too.
	ref, err := RunSequentialOpts(spec, true)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.FarFieldCompensated = true
	fixed := mustArch2D(t, spec, 2, 3, mesh.Sim, opt)
	if d := ref.FarFieldMaxRelDiff(fixed); d > 1e-12 {
		t.Fatalf("2-D compensated far field deviates %g", d)
	}
}

func TestMur2DIdentical(t *testing.T) {
	spec := SpecSmallA()
	spec.Boundary = BoundaryMur1
	seq := mustSeq(t, spec)
	for _, pq := range [][2]int{{2, 2}, {3, 2}} {
		arch := mustArch2D(t, spec, pq[0], pq[1], mesh.Sim, DefaultOptions())
		if !seq.NearFieldEqual(arch) {
			t.Fatalf("%dx%d: Mur 2-D differs from sequential", pq[0], pq[1])
		}
	}
}

func TestHostIO2DAgreesWithLocal(t *testing.T) {
	spec := SpecSmallA()
	host := DefaultOptions()
	local := DefaultOptions()
	local.HostIO = false
	a := mustArch2D(t, spec, 2, 2, mesh.Sim, host)
	b := mustArch2D(t, spec, 2, 2, mesh.Sim, local)
	if !a.NearFieldEqual(b) {
		t.Fatal("2-D host I/O and local coefficients must agree")
	}
	dec, err := decompose(spec, 2, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	requireHostIOTablesAgree(t, spec, dec)
}

func TestRunArchetype2DErrors(t *testing.T) {
	spec := SpecSmall()
	if _, err := RunArchetype2D(spec, 0, 1, mesh.Sim, DefaultOptions()); err == nil {
		t.Fatal("px=0 should error")
	}
	if _, err := RunArchetype2D(spec, 1, spec.NY+1, mesh.Sim, DefaultOptions()); err == nil {
		t.Fatal("py > NY should error")
	}
	bad := spec
	bad.Steps = 0
	if _, err := RunArchetype2D(bad, 2, 2, mesh.Sim, DefaultOptions()); err == nil {
		t.Fatal("invalid spec should error")
	}
	mur := SpecSmallA()
	mur.Boundary = BoundaryMur1
	// py == NY gives one-plane y-edge blocks: rejected under Mur.
	if _, err := RunArchetype2D(mur, 1, mur.NY, mesh.Sim, DefaultOptions()); err == nil {
		t.Fatal("one-plane y-edge blocks must be rejected under Mur")
	}
}

func Test2DProfileBalance(t *testing.T) {
	// A 2-D decomposition of a cube should move less boundary data per
	// process than the 1-D slab decomposition at the same P (surface-
	// to-volume advantage) once P is large enough.
	spec := SpecSmallA()
	run1D := func(p int) int64 {
		opt := DefaultOptions()
		opt.Mesh.Profile = machine.NewProfile(p)
		if _, err := RunArchetype(spec, p, mesh.Sim, opt); err != nil {
			t.Fatal(err)
		}
		return opt.Mesh.Profile.Totals().Bytes
	}
	run2D := func(px, py int) int64 {
		opt := DefaultOptions()
		opt.Mesh.Profile = machine.NewProfile(px * py)
		if _, err := RunArchetype2D(spec, px, py, mesh.Sim, opt); err != nil {
			t.Fatal(err)
		}
		return opt.Mesh.Profile.Totals().Bytes
	}
	b1 := run1D(8)
	b2 := run2D(4, 2)
	// Same process count; the 2-D split of a 13x10x9 box is not
	// guaranteed cheaper at this tiny size, so just sanity-check both
	// recorded nonzero traffic and the harness can compare them.
	if b1 == 0 || b2 == 0 {
		t.Fatal("tallies missed ghost traffic")
	}
}

// TestRandomSpecsSSPIdentical fuzzes the E1 property: for randomly
// generated grids, materials, sources, and decompositions, the SSP
// builds (1-D and 2-D) remain bitwise identical to the sequential
// program.
func TestRandomSpecsSSPIdentical(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nx := rng.Intn(8) + 6
		ny := rng.Intn(8) + 6
		nz := rng.Intn(8) + 6
		spec := Spec{
			NX: nx, NY: ny, NZ: nz,
			Steps: rng.Intn(10) + 4,
			DT:    0.3 + rng.Float64()*0.25,
			Source: SourceSpec{
				I: rng.Intn(nx-2) + 1, J: rng.Intn(ny-2) + 1, K: rng.Intn(nz-2) + 1,
				Amplitude: rng.Float64() + 0.5,
				Delay:     float64(rng.Intn(6) + 2),
				Width:     rng.Float64()*2 + 1,
				Shape:     PulseShape(rng.Intn(2)),
			},
			Probe: [3]int{rng.Intn(nx), rng.Intn(ny), rng.Intn(nz)},
		}
		if rng.Intn(2) == 0 {
			spec.Boundary = BoundaryMur1
		}
		for o := 0; o < rng.Intn(3); o++ {
			i0, j0, k0 := rng.Intn(nx-2), rng.Intn(ny-2), rng.Intn(nz-2)
			spec.Objects = append(spec.Objects, Object{
				I0: i0, I1: i0 + rng.Intn(nx-i0-1) + 1,
				J0: j0, J1: j0 + rng.Intn(ny-j0-1) + 1,
				K0: k0, K1: k0 + rng.Intn(nz-k0-1) + 1,
				EpsR: rng.Float64()*3 + 1, MuR: rng.Float64()*2 + 1,
				Sigma: rng.Float64() * 0.1, SigmaM: rng.Float64() * 0.05,
			})
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("seed %d: generated invalid spec: %v", seed, err)
		}
		seq := mustSeq(t, spec)
		// Random legal decompositions (Mur needs 2-plane edge blocks).
		px := rng.Intn(nx/2) + 1
		py := rng.Intn(ny/2) + 1
		arch1 := mustArch(t, spec, px, mesh.Sim, DefaultOptions())
		if !seq.NearFieldEqual(arch1) {
			t.Fatalf("seed %d: 1-D SSP diverged (p=%d)", seed, px)
		}
		arch2 := mustArch2D(t, spec, px, py, mesh.Sim, DefaultOptions())
		if !seq.NearFieldEqual(arch2) {
			t.Fatalf("seed %d: 2-D SSP diverged (%dx%d)", seed, px, py)
		}
	}
}
