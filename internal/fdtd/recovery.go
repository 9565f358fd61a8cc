package fdtd

// Crash recovery for the parallel build.  RunWithRecovery executes the
// archetype program in checkpointed segments: each segment is the one
// program (program.rank) over the window of CheckpointEvery steps that
// starts at the last checkpoint, and its host result — the gathered
// state at the window's end — is saved atomically as the next
// checkpoint.  When a segment dies — an injected fault.Crash, a panic,
// a deadlock — the driver reloads the last good checkpoint (falling
// back to the retained previous file if the newest is damaged) and
// re-runs the segment.
//
// Theorem 1 makes this scheme exactly testable: the solver network is
// deterministic, so a run that crashes, recovers, and resumes must be
// bitwise identical to the same segmented run left uninterrupted.  The
// near fields and the probe series are furthermore bitwise identical to
// the plain single-segment run (field updates are local and segment
// boundaries do not touch them); only the far-field sums are combined
// in a different — still deterministic — order, because the host's
// accumulators carry the running total across segments and every
// segment ends in its own reduction (the same reordering caveat that
// already distinguishes the parallel far field from the sequential
// one; at P=1 there is nothing to reorder and the far field matches
// the sequential program's bitwise).

import (
	"errors"
	"fmt"

	"repro/internal/fault"
	"repro/internal/mesh"
	"repro/internal/obs"
)

// RecoveryOptions configures RunWithRecovery.
type RecoveryOptions struct {
	// P is the process count of the parallel solver.
	P int
	// Opt carries the archetype options, including a fault injector.
	Opt Options
	// CheckpointEvery is the segment length in time steps.  Zero or
	// negative means a single segment covering the whole run.
	CheckpointEvery int
	// Path, when non-empty, is where checkpoints are saved (atomically,
	// retaining the previous good file at CheckpointPrevPath).  After a
	// crash the driver reloads from this file rather than trusting its
	// in-memory state.  When empty, checkpoints live only in memory.
	Path string
	// Resume starts from the checkpoint at Path (with fallback to the
	// retained previous file) instead of from step 0.
	Resume bool
	// MaxRestarts bounds how many crashes the driver absorbs before
	// giving up; 0 means a sensible default (3).
	MaxRestarts int
}

// RecoveryReport describes what a RunWithRecovery call did.
type RecoveryReport struct {
	Result *Result
	// Crashes lists the injected crashes that were absorbed.
	Crashes []*fault.Crash
	// Restarts counts segment re-runs after a failure.
	Restarts int
	// ResumedFrom is the step the run started at (non-zero when Resume
	// found a checkpoint).
	ResumedFrom int
	// FellBack reports that a load used the retained previous
	// checkpoint because the newest file was missing or damaged.
	FellBack bool
	// CheckpointsSaved counts successful saves to Path.
	CheckpointsSaved int
}

// RunWithRecovery runs the parallel (mesh.Par) archetype build of spec
// under crash recovery and returns the final result plus a report of
// the faults it survived.  Failures that are not injected crashes are
// returned after the restart budget would not help (deadlocks and real
// panics are deterministic, so they are not retried).
func RunWithRecovery(spec Spec, ro RecoveryOptions) (*RecoveryReport, error) {
	pr, err := plan(spec, ro.P, 1, ro.Opt)
	if err != nil {
		return nil, err
	}
	every := ro.CheckpointEvery
	if every <= 0 || every > spec.Steps {
		every = spec.Steps
	}
	if spec.Boundary == BoundaryMur1 && every < spec.Steps {
		// The Mur state (previous-step boundary planes) is not part of
		// the checkpoint, matching checkResumable's refusal.
		return nil, errors.New("fdtd: mid-run checkpoints of Mur-boundary runs are not supported")
	}
	maxRestarts := ro.MaxRestarts
	if maxRestarts == 0 {
		maxRestarts = 3
	}

	// Checkpoint save/load runs host-side between segments; charge it to
	// rank 0's lane so the run report shows what recovery costs.
	col := ro.Opt.Mesh.Obs
	load := func() (*Checkpoint, bool, error) {
		col.Begin(0, obs.PhaseCheckpoint, "checkpoint-load")
		defer col.End(0)
		return LoadCheckpointWithFallback(ro.Path, spec)
	}

	rep := &RecoveryReport{}
	if ro.Resume && ro.Path != "" {
		c, fellBack, err := load()
		if err != nil {
			return nil, err
		}
		if err := checkResumable(spec, c); err != nil {
			return nil, err
		}
		pr.start = c
		rep.FellBack = fellBack
		rep.ResumedFrom = c.StepsDone
	}

	// pr.start is the last good state: nil until the first segment (or a
	// resume) produces one, so a fresh run's first segment scatters no
	// fields, exactly like RunArchetype.
	for done := rep.ResumedFrom; done < spec.Steps; {
		pr.until = imin(done+every, spec.Steps)
		res, err := pr.exec(mesh.Par)
		if err != nil {
			crash, injected := fault.AsCrash(err)
			if !injected || rep.Restarts >= maxRestarts {
				return rep, err
			}
			rep.Crashes = append(rep.Crashes, crash)
			rep.Restarts++
			// Recover: reload the last good checkpoint.  Going through
			// the file (when there is one) exercises the same path a
			// fresh process would take after a real crash.
			if ro.Path != "" && rep.CheckpointsSaved > 0 {
				c, fellBack, lerr := load()
				if lerr != nil {
					return rep, fmt.Errorf("fdtd: recovery reload failed: %w", lerr)
				}
				pr.start, done = c, c.StepsDone
				rep.FellBack = rep.FellBack || fellBack
			}
			continue
		}
		pr.start, done = &Checkpoint{Result: *res, StepsDone: pr.until}, pr.until
		if ro.Path != "" {
			col.Begin(0, obs.PhaseCheckpoint, "checkpoint-save")
			err := SaveCheckpoint(ro.Path, pr.start)
			col.End(0)
			if err != nil {
				return rep, err
			}
			rep.CheckpointsSaved++
		}
	}
	rep.Result = &pr.start.Result
	return rep, nil
}
