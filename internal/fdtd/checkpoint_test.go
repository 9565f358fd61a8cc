package fdtd

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/mesh"
)

func TestCheckpointRoundTrip(t *testing.T) {
	spec := SpecSmall()
	ck := mustSeqUntil(t, spec, 9)
	var buf bytes.Buffer
	if err := ck.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCheckpoint(&buf, spec)
	if err != nil {
		t.Fatal(err)
	}
	if back.StepsDone != 9 || back.Work != ck.Work {
		t.Fatalf("header lost: %+v", back)
	}
	if !back.Ex.Equal(ck.Ex) || !back.Hz.Equal(ck.Hz) {
		t.Fatal("field grids lost")
	}
	if len(back.Probe) != len(ck.Probe) || len(back.FarA) != len(ck.FarA) {
		t.Fatal("series lost")
	}
	// And the deserialised checkpoint resumes identically.
	full := mustSeq(t, spec)
	resumed, err := runWindow(spec, 1, sequentialOptions(false), mesh.Sim, back, spec.Steps)
	if err != nil {
		t.Fatal(err)
	}
	if !full.NearFieldEqual(&resumed.Result) || !full.FarFieldEqual(&resumed.Result) {
		t.Fatal("round-tripped checkpoint diverged on resume")
	}
}

func TestCheckpointFileAndErrors(t *testing.T) {
	spec := SpecSmallA()
	ck := mustSeqUntil(t, spec, 4)
	path := filepath.Join(t.TempDir(), "run.ckp")
	if err := SaveCheckpoint(path, ck); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCheckpoint(path, spec)
	if err != nil {
		t.Fatal(err)
	}
	if back.StepsDone != 4 {
		t.Fatalf("StepsDone = %d", back.StepsDone)
	}
	// Wrong spec shape is rejected.
	other := spec
	other.NX = 20
	if _, err := LoadCheckpoint(path, other); err == nil {
		t.Fatal("mismatched spec accepted")
	}
	// Corrupt inputs.
	if _, err := ReadCheckpoint(bytes.NewReader([]byte("nope")), spec); err == nil {
		t.Fatal("bad magic accepted")
	}
	var buf bytes.Buffer
	if err := ck.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()[:40]), spec); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
	if _, err := LoadCheckpoint(filepath.Join(t.TempDir(), "nope.ckp"), spec); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestCheckpointStepsBound: a checkpoint may stand at any step of its
// run up to the last one, and at no step past it.
func TestCheckpointStepsBound(t *testing.T) {
	spec := SpecSmallA()
	ck := mustSeqUntil(t, spec, spec.Steps)
	for _, tc := range []struct {
		steps int
		ok    bool
	}{{0, true}, {spec.Steps, true}, {spec.Steps + 1, false}, {-1, false}} {
		ck.StepsDone = tc.steps
		var buf bytes.Buffer
		if err := ck.Write(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadCheckpoint(&buf, spec); (err == nil) != tc.ok {
			t.Errorf("checkpoint at step %d of %d: got %v, want accepted = %v", tc.steps, spec.Steps, err, tc.ok)
		}
	}
}

// TestCheckpointVectorLengthBound: the series lengths META declares are
// held to the bytes the VECS section has, before any series is read; a
// probe length one word past them is refused as corrupt, naming VECS.
func TestCheckpointVectorLengthBound(t *testing.T) {
	spec := SpecSmall() // Version C: probe, FarA and FarF all present
	ck := mustSeqUntil(t, spec, 4)
	var buf bytes.Buffer
	if err := ck.Write(&buf); err != nil {
		t.Fatal(err)
	}
	words := len(ck.Probe) + len(ck.FarA) + len(ck.FarF)
	b := buf.Bytes()
	// META follows the magic, the version and the spec fingerprint: a
	// tag, a length, the payload (StepsDone, then the three series
	// lengths, then Work) and a CRC-32 of the payload.
	off := len(checkpointMagicV2) + 4 + 8
	if string(b[off:off+4]) != "META" {
		t.Fatalf("no META section at byte %d", off)
	}
	n := int(binary.LittleEndian.Uint64(b[off+4:]))
	payload := b[off+12 : off+12+n]
	binary.LittleEndian.PutUint64(payload[8:], uint64(words+1))
	binary.LittleEndian.PutUint32(b[off+12+n:], crc32.ChecksumIEEE(payload))

	_, err := ReadCheckpoint(bytes.NewReader(b), spec)
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "VECS section") {
		t.Fatalf("probe length %d over a %d-word VECS section: got %v, want ErrCorrupt naming the VECS section", words+1, words, err)
	}
}
