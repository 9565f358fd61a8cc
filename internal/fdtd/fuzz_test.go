package fdtd

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/mesh"
)

// FuzzReadCheckpoint drives the checkpoint reader with arbitrary bytes
// under one fixed spec.  It must never panic, and every rejection must
// be an error with no checkpoint: a caller never sees a partial one.
// An accepted checkpoint holds all six fields at the spec's shape.
func FuzzReadCheckpoint(f *testing.F) {
	spec := Spec{
		NX: 4, NY: 4, NZ: 4,
		Steps: 4,
		DT:    0.5,
		Source: SourceSpec{
			I: 2, J: 1, K: 1,
			Amplitude: 1, Delay: 2, Width: 1,
		},
		Probe: [3]int{1, 1, 1},
	}
	ck := mustSeqUntil(f, spec, 2)
	var buf bytes.Buffer
	if err := ck.Write(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()

	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:40])           // cut inside the META section
	f.Add(valid[:len(valid)-1]) // cut inside the last checksum
	lying := bytes.Clone(valid)
	lying[27] = 0x7F // META length ~2 GB: under the cap, far past the stream
	f.Add(lying)

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ReadCheckpoint(bytes.NewReader(data), spec)
		if err != nil {
			if c != nil {
				t.Fatalf("rejection %v returned a partial checkpoint", err)
			}
			return
		}
		if c == nil {
			t.Fatal("nil checkpoint without an error")
		}
		for _, g := range []*grid.G3{c.Ex, c.Ey, c.Ez, c.Hx, c.Hy, c.Hz} {
			if g.NX() != spec.NX || g.NY() != spec.NY || g.NZ() != spec.NZ {
				t.Fatalf("accepted checkpoint holds a %v field, spec is %dx%dx%d", g, spec.NX, spec.NY, spec.NZ)
			}
		}
	})
}

// FuzzRefinement draws from a seed a small valid spec (random grid,
// materials, source and boundary), a px x py process grid and a split
// k, and holds every refinement stage on it to the sequential program:
// SSP on px slabs and on px x py blocks, the parallel runtime on the
// blocks, and two step windows [0,k) and [k,Steps) on px parallel slabs
// must reproduce its near field, probe series and work tally bit for
// bit.  A Mur run resumes only from step 0, so its second window is
// refused when k > 0.  The seed corpus is seeds 0-5.
func FuzzRefinement(f *testing.F) {
	for seed := int64(0); seed < 6; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
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
			t.Fatalf("generated invalid spec: %v", err)
		}
		// Legal decompositions: Mur needs 2-plane edge blocks.
		px := rng.Intn(nx/2) + 1
		py := rng.Intn(ny/2) + 1
		k := rng.Intn(spec.Steps + 1)

		seq := mustSeq(t, spec)
		twoWindows := func() (*Result, error) {
			ck, err := runWindow(spec, px, DefaultOptions(), mesh.Par, nil, k)
			if err == nil {
				ck, err = runWindow(spec, px, DefaultOptions(), mesh.Par, ck, spec.Steps)
			}
			if err != nil {
				return nil, err
			}
			return &ck.Result, nil
		}
		for _, st := range []struct {
			name string
			run  func() (*Result, error)
		}{
			{"ssp slabs", func() (*Result, error) { return RunArchetype(spec, px, mesh.Sim, DefaultOptions()) }},
			{"ssp blocks", func() (*Result, error) { return RunArchetype2D(spec, px, py, mesh.Sim, DefaultOptions()) }},
			{"par blocks", func() (*Result, error) { return RunArchetype2D(spec, px, py, mesh.Par, DefaultOptions()) }},
			{"two windows", twoWindows},
		} {
			res, err := st.run()
			if st.name == "two windows" && spec.Boundary == BoundaryMur1 && k > 0 {
				if err == nil || !strings.Contains(err.Error(), "mid-stream") {
					t.Fatalf("%s at k=%d under Mur: got %v, want a refusal", st.name, k, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s (px=%d py=%d k=%d): %v", st.name, px, py, k, err)
			}
			if !seq.NearFieldEqual(res) || seq.Work != res.Work {
				t.Fatalf("%s (px=%d py=%d k=%d): near field, probe or work differs from sequential", st.name, px, py, k)
			}
		}
	})
}
