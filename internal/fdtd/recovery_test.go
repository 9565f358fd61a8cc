package fdtd

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/mesh"
)

// mustRecover runs RunWithRecovery and fails the test on error.
func mustRecover(t *testing.T, spec Spec, ro RecoveryOptions) *RecoveryReport {
	t.Helper()
	rep, err := RunWithRecovery(spec, ro)
	if err != nil {
		t.Fatalf("RunWithRecovery: %v", err)
	}
	return rep
}

// TestRecoveryBitwiseIdentical checks the reports of the headline
// fault-tolerance property: a parallel run that crashes mid-flight
// absorbs exactly that crash, and its far field stays within rounding
// of the sequential one.  That it ends bitwise identical to the same run
// left uninterrupted is the "recovered" and "checkpointed" rows of
// TestOneProgramIdentity.
func TestRecoveryBitwiseIdentical(t *testing.T) {
	spec := SpecSmall() // Version C: near field, probe, and far field
	const p, every = 3, 5

	baseline := mustRecover(t, spec, RecoveryOptions{
		P: p, Opt: DefaultOptions(), CheckpointEvery: every,
	})
	if baseline.Restarts != 0 || len(baseline.Crashes) != 0 {
		t.Fatalf("baseline should not crash: %+v", baseline)
	}

	dir := t.TempDir()
	crashed := mustRecover(t, spec, RecoveryOptions{
		P: p, CheckpointEvery: every,
		Path: filepath.Join(dir, "run.ckp"),
		Opt: func() Options {
			o := DefaultOptions()
			o.Inject = fault.NewCrash(1, 7) // rank 1 dies in the second segment
			return o
		}(),
	})
	if crashed.Restarts != 1 || len(crashed.Crashes) != 1 {
		t.Fatalf("expected exactly one absorbed crash, got %+v", crashed)
	}
	if c := crashed.Crashes[0]; c.Rank != 1 || c.Step != 7 {
		t.Fatalf("wrong crash recorded: %+v", c)
	}

	// The far field is only reordered by the per-segment reductions.
	if d := mustSeq(t, spec).FarFieldMaxRelDiff(crashed.Result); d > 1e-9 {
		t.Fatalf("recovered far field too far from sequential: %g", d)
	}
}

// TestRecoveryCrashInFirstSegment exercises recovery before any
// checkpoint file exists: the driver restarts from the in-memory step-0
// state.  The restarted run's bits are the table's (TestOneProgramIdentity).
func TestRecoveryCrashInFirstSegment(t *testing.T) {
	spec := SpecSmallA()
	opt := DefaultOptions()
	opt.Inject = fault.NewCrash(0, 2)
	crashed := mustRecover(t, spec, RecoveryOptions{
		P: 2, Opt: opt, CheckpointEvery: 6,
		Path: filepath.Join(t.TempDir(), "run.ckp"),
	})
	if crashed.Restarts != 1 {
		t.Fatalf("expected one restart, got %+v", crashed)
	}
}

// TestRecoveryGivesUp checks that the restart budget is honoured: more
// distinct crashes than MaxRestarts surfaces the injected error.
func TestRecoveryGivesUp(t *testing.T) {
	spec := SpecSmallA()
	opt := DefaultOptions()
	opt.Inject = fault.NewCrash(1, 3)
	rep, err := RunWithRecovery(spec, RecoveryOptions{
		P: 2, Opt: opt, CheckpointEvery: 4, MaxRestarts: -1,
	})
	if err == nil {
		t.Fatal("expected the crash to surface with a zero restart budget")
	}
	if _, ok := fault.AsCrash(err); !ok {
		t.Fatalf("error does not wrap the injected crash: %v", err)
	}
	if rep.Restarts != 0 {
		t.Fatalf("no restarts should have happened: %+v", rep)
	}
}

// TestInjectedCrashSurfacesFromRunArchetype checks the plain parallel
// build: an injected crash panics in one rank and comes back as an
// error wrapping *fault.Crash, instead of tearing the process down.
func TestInjectedCrashSurfacesFromRunArchetype(t *testing.T) {
	spec := SpecSmallA()
	opt := DefaultOptions()
	opt.Inject = fault.NewCrash(2, 4)
	_, err := RunArchetype(spec, 3, mesh.Par, opt)
	if err == nil {
		t.Fatal("injected crash did not surface")
	}
	c, ok := fault.AsCrash(err)
	if !ok {
		t.Fatalf("error does not wrap *fault.Crash: %v", err)
	}
	if c.Rank != 2 || c.Step != 4 {
		t.Fatalf("wrong crash: %+v", c)
	}
}

// TestRecoveryResume drives the -resume workflow: a run cut short by an
// exhausted restart budget leaves a checkpoint file behind, and a new
// RunWithRecovery with Resume starts from it.  That the resumed run's
// results are the uninterrupted run's is the table's "recovered" rows.
func TestRecoveryResume(t *testing.T) {
	spec := SpecSmallA()
	path := filepath.Join(t.TempDir(), "run.ckp")

	opt := DefaultOptions()
	opt.Inject = fault.NewCrash(0, 9)
	_, err := RunWithRecovery(spec, RecoveryOptions{
		P: 2, Opt: opt, CheckpointEvery: 4, Path: path, MaxRestarts: -1,
	})
	if err == nil {
		t.Fatal("first run should have died at step 9")
	}

	rep := mustRecover(t, spec, RecoveryOptions{
		P: 2, Opt: DefaultOptions(), CheckpointEvery: 4, Path: path, Resume: true,
	})
	if rep.ResumedFrom != 8 {
		t.Fatalf("expected resume from step 8, got %d", rep.ResumedFrom)
	}
}

// TestCheckpointCorruptionDetected is the hardening acceptance test: a
// flipped byte or a truncated tail is rejected with ErrCorrupt, and the
// loader falls back to the retained previous good checkpoint.
func TestCheckpointCorruptionDetected(t *testing.T) {
	spec := SpecSmall()
	path := filepath.Join(t.TempDir(), "run.ckp")

	ck4, ck9 := mustSeqUntil(t, spec, 4), mustSeqUntil(t, spec, 9)
	// Two saves: run.ckp holds step 9, run.ckp.prev holds step 4.
	if err := SaveCheckpoint(path, ck4); err != nil {
		t.Fatal(err)
	}
	if err := SaveCheckpoint(path, ck9); err != nil {
		t.Fatal(err)
	}

	// Flip one payload byte deep in the file: checksum catches it.
	if err := fault.FlipByte(path, -100); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path, spec); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped byte not rejected as corrupt: %v", err)
	}
	c, fellBack, err := LoadCheckpointWithFallback(path, spec)
	if err != nil {
		t.Fatalf("fallback load failed: %v", err)
	}
	if !fellBack || c.StepsDone != 4 {
		t.Fatalf("expected fallback to the step-4 checkpoint, got fellBack=%v steps=%d",
			fellBack, c.StepsDone)
	}
	// And the fallback checkpoint resumes to the correct final state.
	full := mustSeq(t, spec)
	resumed, err := runWindow(spec, 1, sequentialOptions(false), mesh.Sim, c, spec.Steps)
	if err != nil {
		t.Fatal(err)
	}
	if !full.NearFieldEqual(&resumed.Result) {
		t.Fatal("fallback checkpoint diverged on resume")
	}

	// Truncation (an interrupted write) is likewise rejected.
	if err := SaveCheckpoint(path, ck9); err != nil {
		t.Fatal(err)
	}
	if err := fault.Truncate(path, -37); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path, spec); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated checkpoint not rejected as corrupt: %v", err)
	}

	// The unversioned v1 format carried neither fingerprint nor
	// checksums and is no longer read: its magic is just a bad magic.
	var v2 bytes.Buffer
	if err := ck9.Write(&v2); err != nil {
		t.Fatal(err)
	}
	v1 := append([]byte("FDTDCKP1"), v2.Bytes()[len(checkpointMagicV2):]...)
	if _, err := ReadCheckpoint(bytes.NewReader(v1), spec); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("v1-magic stream not rejected as corrupt: %v", err)
	}
}

// TestCheckpointSpecFingerprint checks fail-fast on mismatched specs:
// a checkpoint saved under one spec refuses to load under a physically
// different one, with ErrSpecMismatch.
func TestCheckpointSpecFingerprint(t *testing.T) {
	spec := SpecSmall()
	ck := mustSeqUntil(t, spec, 4)
	var buf bytes.Buffer
	if err := ck.Write(&buf); err != nil {
		t.Fatal(err)
	}
	mutations := []func(*Spec){
		func(s *Spec) { s.Steps = 20 },
		func(s *Spec) { s.DT = 0.4 },
		func(s *Spec) { s.Source.Amplitude = 2 },
		func(s *Spec) { s.Probe = [3]int{7, 5, 4} },
		func(s *Spec) { s.Objects = s.Objects[:1] },
		func(s *Spec) { s.FarField = nil },
		func(s *Spec) { s.Boundary = BoundaryMur1 },
	}
	for i, mutate := range mutations {
		other := SpecSmall()
		if other.FarField != nil {
			ffCopy := *other.FarField
			other.FarField = &ffCopy
		}
		mutate(&other)
		_, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()), other)
		if !errors.Is(err, ErrSpecMismatch) {
			t.Fatalf("mutation %d: expected ErrSpecMismatch, got %v", i, err)
		}
	}
	// The identical spec still loads.
	if _, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()), SpecSmall()); err != nil {
		t.Fatalf("unmutated spec rejected: %v", err)
	}
}

// TestSaveCheckpointAtomic checks the atomic-save contract: the
// previous good file is retained, and no temp files are left behind.
func TestSaveCheckpointAtomic(t *testing.T) {
	spec := SpecSmallA()
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckp")
	ck4, ck9 := mustSeqUntil(t, spec, 4), mustSeqUntil(t, spec, 9)
	if err := SaveCheckpoint(path, ck4); err != nil {
		t.Fatal(err)
	}
	if err := SaveCheckpoint(path, ck9); err != nil {
		t.Fatal(err)
	}
	newest, err := LoadCheckpoint(path, spec)
	if err != nil || newest.StepsDone != 9 {
		t.Fatalf("newest checkpoint wrong: steps=%v err=%v", newest, err)
	}
	prev, err := LoadCheckpoint(CheckpointPrevPath(path), spec)
	if err != nil || prev.StepsDone != 4 {
		t.Fatalf("retained checkpoint wrong: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
	}
	if len(entries) != 2 {
		t.Fatalf("expected exactly run.ckp and run.ckp.prev, got %d entries", len(entries))
	}
}

// TestRecoveryMurWholeRunInterval: a Mur run, whose boundary state no
// checkpoint holds, runs under recovery when its checkpoint interval is
// the whole run, to the sequential program's bits, and is refused any
// shorter interval.
func TestRecoveryMurWholeRunInterval(t *testing.T) {
	spec := SpecSmallA()
	spec.Boundary = BoundaryMur1
	rep := mustRecover(t, spec, RecoveryOptions{P: 2, Opt: DefaultOptions(), CheckpointEvery: spec.Steps})
	if !mustSeq(t, spec).NearFieldEqual(rep.Result) {
		t.Fatal("Mur run under recovery differs from the sequential program")
	}
	_, err := RunWithRecovery(spec, RecoveryOptions{P: 2, Opt: DefaultOptions(), CheckpointEvery: spec.Steps - 1})
	if err == nil || !strings.Contains(err.Error(), "Mur") {
		t.Fatalf("Mur run checkpointing before its last step: got %v, want the refusal", err)
	}
}

// TestRecoveryRestartBudgetIsExact: a crash that every segment meets
// again is restarted exactly MaxRestarts times, and then surfaces.  A
// cancellation whose reason is an injected crash is such a fault: it
// crashes every rank at its first step, run after run.
func TestRecoveryRestartBudgetIsExact(t *testing.T) {
	spec := SpecSmallA()
	for _, budget := range []int{1, 2} {
		opt := DefaultOptions()
		opt.Cancel = fault.NewCanceller()
		opt.Cancel.Cancel(&fault.Crash{Rank: 1, Step: 0})
		rep, err := RunWithRecovery(spec, RecoveryOptions{P: 2, Opt: opt, CheckpointEvery: 4, MaxRestarts: budget})
		if _, ok := fault.AsCrash(err); !ok {
			t.Fatalf("budget %d: got %v, want the injected crash", budget, err)
		}
		if rep.Restarts != budget || len(rep.Crashes) != budget {
			t.Fatalf("budget %d: %d restarts, %d crashes absorbed; want %d each", budget, rep.Restarts, len(rep.Crashes), budget)
		}
	}
}
