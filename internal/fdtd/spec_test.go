package fdtd

import "testing"

// goldenSpec exercises every field Fingerprint hashes: objects, a far
// field, a non-default pulse shape and source kind, and the Mur
// boundary.
func goldenSpec() Spec {
	s := SpecTable1()
	s.Source.Shape = PulseRicker
	s.Source.Kind = SourcePlaneX
	s.Boundary = BoundaryMur1
	return s
}

// TestFingerprintGolden pins Fingerprint's bytes.  Checkpoints embed
// the fingerprint, and the service and the cluster key their caches
// and shards by it, so a change here orphans every stored checkpoint
// and cached result.
func TestFingerprintGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec Spec
		want uint64
	}{
		{"small", SpecSmall(), 0x3cf8a45426d391a8},
		{"small-a", SpecSmallA(), 0xf0939a21c61590aa},
		{"table1", SpecTable1(), 0x4e3863bdd14f6b95},
		{"figure2", SpecFigure2(), 0x238f369346404735},
		{"objects+farfield+mur1", goldenSpec(), 0x27ea650872c04354},
	} {
		if got := tc.spec.Fingerprint(); got != tc.want {
			t.Errorf("%s: fingerprint %#016x, want %#016x", tc.name, got, tc.want)
		}
	}
}

// TestFingerprintAllocs: the service fingerprints every request, cache
// hits included, so the hash must not allocate.
func TestFingerprintAllocs(t *testing.T) {
	for _, s := range []Spec{SpecSmall(), goldenSpec()} {
		if n := testing.AllocsPerRun(100, func() { s.Fingerprint() }); n != 0 {
			t.Errorf("Fingerprint of a %d-object spec: %v allocs per run, want 0", len(s.Objects), n)
		}
	}
}
