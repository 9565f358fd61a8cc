package fdtd

import (
	"bytes"
	"testing"

	"repro/internal/grid"
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
	ck, err := RunSequentialUntil(spec, 2)
	if err != nil {
		f.Fatal(err)
	}
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
