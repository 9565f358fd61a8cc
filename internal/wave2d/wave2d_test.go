package wave2d

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/machine"
	"repro/internal/mesh"
)

func testSpec() Spec {
	return Spec{
		NX: 21, NY: 17,
		Steps: 30,
		DT:    0.5,
		SI:    10, SJ: 8,
		Delay: 8, Width: 3,
		PI: 15, PJ: 8,
		Sigma: func(i, j int) float64 {
			if i >= 4 && i < 8 && j >= 4 && j < 12 {
				return 0.4 // a lossy slab
			}
			return 0
		},
	}
}

func TestValidate(t *testing.T) {
	if err := testSpec().Validate(); err != nil {
		t.Fatal(err)
	}
	mut := []func(*Spec){
		func(s *Spec) { s.NX = 2 },
		func(s *Spec) { s.Steps = 0 },
		func(s *Spec) { s.DT = 0.8 },
		func(s *Spec) { s.SI = 0 },
		func(s *Spec) { s.PI = -1 },
		func(s *Spec) { s.Width = 0 },
	}
	for i, m := range mut {
		s := testSpec()
		m(&s)
		if err := s.Validate(); err == nil {
			t.Fatalf("case %d should fail", i)
		}
	}
}

func TestSequentialPhysics(t *testing.T) {
	res, err := RunSequential(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	peak := 0.0
	for _, v := range res.Probe {
		if a := math.Abs(v); a > peak {
			peak = a
		}
	}
	if peak == 0 {
		t.Fatal("pulse never reached the probe")
	}
	if peak > 100 || math.IsNaN(peak) {
		t.Fatalf("unstable: peak=%v", peak)
	}
}

// digest is FNV-64a over the bits of the probe series, then of Ez in
// i-major order: one number that pins every observable bit of a run.
func digest(r *Result) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, v := range r.Probe {
		put(v)
	}
	for i := 0; i < r.Ez.NX(); i++ {
		for j := 0; j < r.Ez.NY(); j++ {
			put(r.Ez.At(i, j, 0))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenDigest is digest of testSpec() run for 200 steps.  The
// sequential reference and the distributed builds share their kernels,
// so a seq-vs-archetype comparison alone cannot catch a bit that moves
// in both; this constant can.
const goldenDigest = "bfe0fb4fd3e98850"

func TestArchetypeMatchesSequentialAllTopologies(t *testing.T) {
	spec := testSpec()
	seq, err := RunSequential(spec)
	if err != nil {
		t.Fatal(err)
	}
	long := testSpec()
	long.Steps = 200
	seqLong, err := RunSequential(long)
	if err != nil {
		t.Fatal(err)
	}
	if d := digest(seqLong); d != goldenDigest {
		t.Fatalf("sequential digest %s, want %s", d, goldenDigest)
	}
	for _, pq := range [][2]int{{2, 3}, {3, 2}, {1, 1}} {
		par, err := RunArchetype(long, pq[0], pq[1], mesh.Par, mesh.DefaultOptions())
		if err != nil {
			t.Fatalf("%dx%d: %v", pq[0], pq[1], err)
		}
		if d := digest(par); d != goldenDigest {
			t.Fatalf("%dx%d Par digest %s, want %s", pq[0], pq[1], d, goldenDigest)
		}
	}
	for _, pq := range [][2]int{{1, 1}, {1, 3}, {3, 1}, {2, 2}, {3, 2}, {2, 4}} {
		arch, err := RunArchetype(spec, pq[0], pq[1], mesh.Sim, mesh.DefaultOptions())
		if err != nil {
			t.Fatalf("%dx%d: %v", pq[0], pq[1], err)
		}
		if !seq.Equal(arch) {
			t.Fatalf("%dx%d: archetype diverged from sequential (max diff %g)",
				pq[0], pq[1], seq.Ez.MaxAbsDiff(arch.Ez))
		}
	}
}

func TestSimEqualsParallel(t *testing.T) {
	spec := testSpec()
	sim, err := RunArchetype(spec, 2, 3, mesh.Sim, mesh.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 3; rep++ {
		par, err := RunArchetype(spec, 2, 3, mesh.Par, mesh.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !sim.Equal(par) {
			t.Fatalf("rep %d: Sim != Par", rep)
		}
	}
}

func TestLossySlabAttenuates(t *testing.T) {
	withLoss := testSpec()
	noLoss := testSpec()
	noLoss.Sigma = nil
	// Probe on the far side of the lossy slab from the source.
	withLoss.PI, withLoss.PJ = 2, 8
	noLoss.PI, noLoss.PJ = 2, 8
	a, err := RunSequential(withLoss)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSequential(noLoss)
	if err != nil {
		t.Fatal(err)
	}
	peak := func(r *Result) float64 {
		p := 0.0
		for _, v := range r.Probe {
			if x := math.Abs(v); x > p {
				p = x
			}
		}
		return p
	}
	if peak(a) >= peak(b) {
		t.Fatalf("lossy slab should attenuate: with=%g without=%g", peak(a), peak(b))
	}
}

func TestProfileAndErrors(t *testing.T) {
	spec := testSpec()
	opt := mesh.DefaultOptions()
	opt.Profile = machine.NewProfile(4)
	if _, err := RunArchetype(spec, 2, 2, mesh.Sim, opt); err != nil {
		t.Fatal(err)
	}
	if tot := opt.Profile.Totals(); tot.Work == 0 || tot.Messages == 0 {
		t.Fatal("profile not recorded")
	}
	if _, err := RunArchetype(spec, 0, 1, mesh.Sim, mesh.DefaultOptions()); err == nil {
		t.Fatal("px=0 should error")
	}
	if _, err := RunArchetype(spec, 1, 99, mesh.Sim, mesh.DefaultOptions()); err == nil {
		t.Fatal("py > NY should error")
	}
	bad := spec
	bad.Steps = 0
	if _, err := RunArchetype(bad, 2, 2, mesh.Sim, mesh.DefaultOptions()); err == nil {
		t.Fatal("invalid spec should error")
	}
	if _, err := RunSequential(bad); err == nil {
		t.Fatal("invalid spec should error sequentially")
	}
}
