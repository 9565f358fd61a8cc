package fdtd

import (
	"bytes"
	"path/filepath"
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
