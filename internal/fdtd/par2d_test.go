package fdtd

import (
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

// TestHostIO2DAgreesWithLocal holds the 2-D host-I/O coefficient
// tables to the locally built ones; the runs' bits are the table's
// "host I/O off 2x2" row.
func TestHostIO2DAgreesWithLocal(t *testing.T) {
	spec := SpecSmallA()
	dec, err := decompose(spec, 2, 2)
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
