package fdtd

import (
	"math"
	"testing"

	"repro/internal/mesh"
)

// murVacuumSpec: an empty domain whose pulse has had ample time to
// reach the boundary and bounce (or exit) several times.
func murVacuumSpec(boundary BoundaryKind, steps int) Spec {
	return Spec{
		NX: 16, NY: 16, NZ: 16,
		Steps: steps,
		DT:    0.5,
		Source: SourceSpec{
			I: 8, J: 8, K: 8,
			Amplitude: 1, Delay: 8, Width: 3,
		},
		Probe:    [3]int{12, 8, 8},
		Boundary: boundary,
	}
}

// lateRinging returns the peak-to-peak variation of Ez at the probe
// over the last quarter of the run — long after the direct pulse has
// passed, any time-VARIATION seen there is energy still bouncing inside
// the box.  (Neither total energy nor the raw probe level works as a
// discriminator: a Gaussian soft source has a DC component that leaves
// a static near-field residue — a constant probe offset — that no
// absorbing boundary can remove.)
func lateRinging(r *Result) float64 {
	probe := r.Probe[len(r.Probe)*3/4:]
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range probe {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return hi - lo
}

func TestMurAbsorbsReflections(t *testing.T) {
	const steps = 240
	pec, err := RunSequential(murVacuumSpec(BoundaryPEC, steps))
	if err != nil {
		t.Fatal(err)
	}
	mur, err := RunSequential(murVacuumSpec(BoundaryMur1, steps))
	if err != nil {
		t.Fatal(err)
	}
	rPEC, rMur := lateRinging(pec), lateRinging(mur)
	if rPEC == 0 {
		t.Fatal("PEC box should still be ringing")
	}
	if rMur > rPEC/10 {
		t.Fatalf("Mur should suppress late reflections by >10x: PEC=%g Mur=%g", rPEC, rMur)
	}
}

func TestMurStable(t *testing.T) {
	spec := murVacuumSpec(BoundaryMur1, 400) // long run: Mur-1 must not blow up
	res, err := RunSequential(spec)
	if err != nil {
		t.Fatal(err)
	}
	if m := maxFieldMagnitude(res); m > 10 || math.IsNaN(m) || math.IsInf(m, 0) {
		t.Fatalf("long Mur run unstable: max=%v", m)
	}
	// The propagating field must have largely decayed at the probe.
	// (First-order Mur reflects a few percent at oblique incidence, so
	// a small tail is physical.)
	if r := lateRinging(res); r > 1e-2 {
		t.Fatalf("probe still ringing under Mur: %g", r)
	}
}

func TestMurRejectsTooThinEdgeSlabs(t *testing.T) {
	spec := SpecSmallA()
	spec.Boundary = BoundaryMur1
	// p == NX gives one-plane slabs: the x-face update cannot run.
	_, want := RunArchetype(spec, spec.NX, mesh.Sim, DefaultOptions())
	if want == nil {
		t.Fatal("one-plane edge slabs must be rejected under Mur")
	}
	// Recovery admits through the same decompose(): a single-segment run
	// and a step-0 resume are refused with the same words.
	if _, err := RunWithRecovery(spec, RecoveryOptions{P: spec.NX, Opt: DefaultOptions()}); err == nil || err.Error() != want.Error() {
		t.Fatalf("RunWithRecovery: got %v, want %v", err, want)
	}
	ck0 := mustSeqUntil(t, spec, 0)
	if _, err := runWindow(spec, spec.NX, DefaultOptions(), mesh.Par, ck0, spec.Steps); err == nil || err.Error() != want.Error() {
		t.Fatalf("step-0 resume: got %v, want %v", err, want)
	}
	// A p that still leaves >= 2 planes per slab is fine.
	if _, err := RunArchetype(spec, spec.NX/2, mesh.Sim, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
}

func TestMurChangesResultsVsPEC(t *testing.T) {
	pec := SpecSmallA()
	mur := SpecSmallA()
	mur.Boundary = BoundaryMur1
	a, err := RunSequential(pec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSequential(mur)
	if err != nil {
		t.Fatal(err)
	}
	if a.NearFieldEqual(b) {
		t.Fatal("boundary treatment should change the fields")
	}
	if BoundaryPEC.String() != "pec" || BoundaryMur1.String() != "mur1" {
		t.Fatal("boundary names")
	}
}
