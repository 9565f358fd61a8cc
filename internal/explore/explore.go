// Package explore is the repository's determinacy checker: it
// systematically enumerates the schedules of a controlled process
// network — dynamic partial-order reduction (DPOR) layered on the sched
// controlled-execution seam.
//
// Theorem 1 of the paper says that deterministic processes sharing
// nothing but single-reader single-writer channels with infinite slack
// reach the same final state under every maximal interleaving.  Rather
// than sampling a few interleavings, this package checks the property:
// it executes the network once, builds the happens-before relation of
// the schedule (vector clocks per process; the k-th receive on a
// channel happens-after the k-th send), finds racing pairs — adjacent
// conflicting operations that could have run in the other order — and
// re-executes with forced-pick prefixes (sched.Replay) that reverse
// them, recursively, until the reduced schedule space is exhausted.
// Sleep sets prevent re-exploring a Mazurkiewicz equivalence class
// twice, so for terminating networks the number of completed schedules
// equals the number of inequivalent maximal interleavings under the
// chosen dependence mode.
//
// The SRSW channel discipline is what keeps this tractable: channel
// interference is pairwise (one writer, one reader), so the dependence
// relation stays sparse and most schedules collapse into one class.
// For premise-respecting networks the DepChannel mode reduces the
// whole space to a single schedule — Theorem 1's conclusion shows up
// as "1 inequivalent schedule explored", so full-size programs (the
// paper's Table 1 program at P = 8) are certified by one controlled
// run plus the race analysis.  That mode takes the no-shared-memory
// premise on trust; Across re-explores under several continuations, so
// the certificate also compares the final states of several different
// interleavings bitwise.  Networks that cheat (shared memory
// behind the scheduler's back) are hunted with DepSteps, which
// conservatively treats every cross-process pair of Step actions as
// conflicting; any divergence found is shrunk by the ddmin minimizer
// (Minimize) to a minimal forced-pick prefix and rendered as a
// replayable artifact.  A network whose reference run fails (a
// deadlock) is reported, never certified.
package explore

import (
	"fmt"
	"strings"

	"repro/internal/sched"
	"repro/internal/trace"
)

// DepMode selects the dependence relation DPOR reduces with respect
// to.  Coarser relations (more dependence) enumerate more schedules.
type DepMode int

const (
	// DepChannel orders only channel operations: program order plus
	// the send->recv enabling edge per message.  Under the paper's
	// premises every maximal interleaving is equivalent, so a
	// premise-respecting network explores exactly one schedule.
	DepChannel DepMode = iota
	// DepSteps additionally treats every cross-process pair of Step
	// actions as conflicting.  The scheduler cannot see what the user
	// code between scheduling points touches, so this is the sound
	// over-approximation for finding shared-memory violations: a Step
	// is where foreign state may be read or written.
	DepSteps
	// DepStepTags refines DepSteps: Step actions conflict only when
	// their tags match, so tags can name the shared variable they
	// guard and unrelated steps commute.
	DepStepTags
	// DepFull makes every cross-process pair conflict: full
	// enumeration of the interleavings distinguishable by order alone.
	DepFull
)

// String renders the mode's flag form.
func (m DepMode) String() string {
	switch m {
	case DepChannel:
		return "channel"
	case DepSteps:
		return "steps"
	case DepStepTags:
		return "step-tags"
	case DepFull:
		return "full"
	}
	return fmt.Sprintf("DepMode(%d)", int(m))
}

// ParseMode is the inverse of DepMode.String.
func ParseMode(s string) (DepMode, error) {
	switch s {
	case "channel":
		return DepChannel, nil
	case "steps":
		return DepSteps, nil
	case "step-tags":
		return DepStepTags, nil
	case "full":
		return DepFull, nil
	}
	return 0, fmt.Errorf("explore: unknown dependence mode %q (want channel|steps|step-tags|full)", s)
}

// Options configures an exploration.
type Options[R any] struct {
	// Mode is the dependence relation (default DepChannel).
	Mode DepMode
	// Continue is the PolicySpec of the continuation policy completing
	// each run past its forced prefix (default "lowest").  It may not
	// be a replay spec.  The continuation changes which representative
	// of each equivalence class is executed, never how many classes
	// the exploration finds.
	Continue string
	// MaxSchedules bounds the number of completed schedules
	// (0 = exhaustive).  When the bound stops the exploration early,
	// Report.Truncated is set.
	MaxSchedules int
	// Fingerprint renders a run's final states for comparison and
	// artifacts; it must be injective up to the caller's notion of
	// equality.  The default renders finals like %v but follows
	// pointers and keeps distinct float bit patterns distinct, so
	// reflect.DeepEqual finals fingerprint equal and equal
	// fingerprints mean bitwise-equal floats.
	Fingerprint func(finals []R) string
}

func (o *Options[R]) fingerprint() func([]R) string {
	if o.Fingerprint != nil {
		return o.Fingerprint
	}
	return render[R]
}

func (o *Options[R]) continueSpec() string {
	if o.Continue == "" {
		return "lowest"
	}
	return o.Continue
}

// maxActions bounds each run's length, a backstop against
// non-terminating networks.
const maxActions = 100000

// Divergence records one explored schedule whose outcome differs from
// the reference run — a counterexample to determinacy.
type Divergence struct {
	// Picks is the full pick sequence of the diverging run; forcing it
	// as a replay prefix reproduces the outcome deterministically.
	Picks []int `json:"picks"`
	// Outcome is the diverging run's fingerprint (or "error: ..." when
	// the run failed, e.g. a schedule-dependent deadlock).
	Outcome string `json:"outcome"`
}

// Report is the result of one exploration.
type Report struct {
	P int // processes in the network
	// Mode and Continue echo the options the exploration ran under.
	Mode     DepMode
	Continue string
	// Schedules counts completed, pairwise-inequivalent schedules.
	// When the exploration ran to exhaustion (Truncated false) this is
	// the size of the reduced schedule space: the number of
	// Mazurkiewicz equivalence classes of maximal interleavings under
	// Mode's dependence relation.
	Schedules int
	// SleepBlocked counts executions abandoned because every enabled
	// process was in the sleep set — re-explorations of an already
	// covered class, cut off by the sleep-set discipline.
	SleepBlocked int
	// Races counts the racing pairs examined across all runs
	// (re-discoveries across runs count again).
	Races int
	// Truncated is set when MaxSchedules stopped the exploration
	// before the space was exhausted.
	Truncated bool
	// Reference is the first run's fingerprint; every other schedule
	// is compared against it.
	Reference string
	// Err is the reference run's error (a deadlock, an action-bound
	// abort), nil when it completed.  A network whose reference run
	// fails is never certified, even if every schedule fails alike.
	Err error
	// Divergences lists the schedules whose outcome differed from the
	// reference, in discovery order.
	Divergences []Divergence
}

// Determinate reports whether the exploration certifies Theorem 1's
// conclusion for this network: the reference run completed, the space
// was exhausted, and every schedule agreed with the reference.
func (r *Report) Determinate() bool {
	return r.Err == nil && !r.Truncated && len(r.Divergences) == 0
}

// Summary renders the report in one line.
func (r *Report) Summary() string {
	verdict := "determinate"
	if r.Err != nil {
		verdict = fmt.Sprintf("reference run failed: %v", r.Err)
	} else if len(r.Divergences) > 0 {
		verdict = fmt.Sprintf("%d DIVERGENT", len(r.Divergences))
	}
	bound := ""
	if r.Truncated {
		bound = " (truncated by the schedule bound)"
	}
	return fmt.Sprintf("p=%d mode=%s: %d schedule(s), %d sleep-set-blocked, %d race pair(s) examined, %s%s",
		r.P, r.Mode, r.Schedules, r.SleepBlocked, r.Races, verdict, bound)
}

// point records one scheduling decision of one run: who was enabled
// with which pending operations, which process the policy picked, the
// operation that executed (op index filled by the channel hooks), and
// the sleep set in force when the decision was taken.
type point struct {
	enabled []int
	ops     []opInfo // aligned with enabled; MsgIdx unknown (-1)
	pick    int
	act     opInfo // the executed operation, MsgIdx filled
	sleep   map[int]opInfo
}

// runResult is everything the DPOR driver needs from one execution.
type runResult struct {
	points         []point
	outcome        string
	err            error // the run's error; outcome renders it
	infeasible     bool  // forced prefix hit a disabled rank
	sleepBlockedAt int   // depth at which all enabled ranks slept, -1
}

func (r *runResult) picks() []int {
	ps := make([]int, len(r.points))
	for i := range r.points {
		ps[i] = r.points[i].pick
	}
	return ps
}

// runner executes the network once under a forced prefix and an
// initial sleep set (in force at the prefix's final depth, i.e. at the
// branch point), returning the recorded schedule.  The generic type
// parameters of the network are erased here so the DPOR driver stays
// non-generic.
type runner func(prefix []int, sleep map[int]opInfo) (*runResult, error)

// expPolicy is the scheduling policy the explorer drives runs with: a
// sched.Replay forces the branch prefix, the continuation completes
// the run, and on the way it records every scheduling point, maintains
// the sleep set, and filters sleeping processes out of the
// continuation's choices.
type expPolicy struct {
	replay      *sched.Replay
	mode        DepMode
	branchDepth int // depth of the final forced pick; sleepInit applies there
	sleepInit   map[int]opInfo

	sleep  map[int]opInfo
	points []point
	// sent and taken count the executed sends and receives of each
	// channel (index from*p+to).  The scheduler executes exactly the
	// picked op, and channels are single-reader single-writer FIFOs, so
	// the k-th receive on a channel takes its k-th send.
	p           int
	sent, taken []int

	sleepBlockedAt int
}

func (e *expPolicy) Name() string { return "explore" }

func (e *expPolicy) Pick(enabled []int, step int) int {
	panic("explore: expPolicy requires the scheduler's OpPolicy path")
}

// PickOp implements sched.OpPolicy.
func (e *expPolicy) PickOp(enabled []int, ops []sched.PendingOp, step int) int {
	// The sleep set springs to life at the branch point and is
	// thereafter woken by dependent executed operations: a sleeping
	// process stays asleep only while everything that runs commutes
	// with its pending operation.
	if step == e.branchDepth {
		e.sleep = make(map[int]opInfo, len(e.sleepInit))
		for q, op := range e.sleepInit {
			e.sleep[q] = op
		}
	} else if step > e.branchDepth && step > 0 && len(e.sleep) > 0 {
		prev := e.points[step-1].act
		for q, qop := range e.sleep {
			if dependent(e.mode, prev, qop) {
				delete(e.sleep, q)
			}
		}
	}

	pt := point{
		enabled: append([]int(nil), enabled...),
		ops:     make([]opInfo, len(ops)),
		sleep:   make(map[int]opInfo, len(e.sleep)),
	}
	for i, op := range ops {
		pt.ops[i] = opInfo{Rank: op.Rank, Kind: op.Kind, Peer: op.Peer, Tag: op.Tag, MsgIdx: -1}
	}
	for q, op := range e.sleep {
		pt.sleep[q] = op
	}

	var pick int
	if step < len(e.replay.Picks()) {
		pick = e.replay.Pick(enabled, step)
	} else {
		cands := enabled
		if len(e.sleep) > 0 {
			cands = make([]int, 0, len(enabled))
			for _, r := range enabled {
				if _, asleep := e.sleep[r]; !asleep {
					cands = append(cands, r)
				}
			}
			if len(cands) == 0 {
				// Sleep-set blocked: every enabled process would only
				// replay an already-explored class.  Finish the run so
				// the coroutines unwind, but the result is discarded.
				if e.sleepBlockedAt < 0 {
					e.sleepBlockedAt = step
				}
				cands = enabled
			}
		}
		pick = e.replay.Pick(cands, step)
	}
	pt.pick = pick
	for i, r := range pt.enabled {
		if r == pick {
			pt.act = pt.ops[i]
		}
	}
	switch a := &pt.act; a.Kind {
	case trace.Send:
		ch := a.Rank*e.p + a.Peer
		a.MsgIdx = e.sent[ch]
		e.sent[ch]++
	case trace.Recv:
		ch := a.Peer*e.p + a.Rank
		a.MsgIdx = e.taken[ch]
		e.taken[ch]++
	}
	e.points = append(e.points, pt)
	return pick
}

// newRunner builds the type-erased runner for a network constructor.
// Each run gets fresh processes and a fresh continuation policy.
func newRunner[T, R any](mk func() []sched.Proc[T, R], opt *Options[R]) (runner, error) {
	contSpec := opt.continueSpec()
	if strings.HasPrefix(contSpec, "replay:") {
		return nil, fmt.Errorf("explore: continuation policy may not be a replay (got %q)", contSpec)
	}
	if _, err := sched.ParsePolicy(contSpec); err != nil {
		return nil, err
	}
	fp := opt.fingerprint()
	return func(prefix []int, sleep map[int]opInfo) (*runResult, error) {
		cont, err := sched.ParsePolicy(contSpec)
		if err != nil {
			return nil, err
		}
		procs := mk()
		p := len(procs)
		pol := &expPolicy{
			replay:         sched.NewReplay(prefix, cont),
			mode:           opt.Mode,
			branchDepth:    len(prefix) - 1,
			sleepInit:      sleep,
			p:              p,
			sent:           make([]int, p*p),
			taken:          make([]int, p*p),
			sleepBlockedAt: -1,
		}
		finals, err := sched.RunControlled(procs, pol, sched.Options[T]{MaxActions: maxActions})
		rr := &runResult{points: pol.points, sleepBlockedAt: pol.sleepBlockedAt}
		if _, diverged := pol.replay.Diverged(); diverged {
			rr.infeasible = true
		}
		if err != nil {
			rr.err = err
			rr.outcome = "error: " + err.Error()
		} else {
			rr.outcome = fp(finals)
		}
		return rr, nil
	}, nil
}

// Run explores the network's schedule space and reports what it found.
// mk must build a fresh, deterministic set of processes on every call;
// the explorer executes it once per schedule.
func Run[T, R any](mk func() []sched.Proc[T, R], opt Options[R]) (*Report, error) {
	run, err := newRunner(mk, &opt)
	if err != nil {
		return nil, err
	}
	return exploreAll(run, len(mk()), &driverOpts{
		mode:         opt.Mode,
		contSpec:     opt.continueSpec(),
		maxSchedules: opt.MaxSchedules,
	})
}

// Across explores mk once per policy in pols, each one's spec
// overriding opt.Continue, and returns the reports in order.  The
// continuation decides which interleaving each run past its forced
// prefix takes; under DepChannel a premise-respecting network explores
// one schedule, so Across compares the final states len(pols)
// different interleavings reach.  The error is non-nil when mk cannot
// be explored (reports nil) or when the explorations disagree: one is
// not determinate, or its reference differs from the first's.
func Across[T, R any](mk func() []sched.Proc[T, R], opt Options[R], pols []sched.Policy) ([]*Report, error) {
	reps := make([]*Report, len(pols))
	for i, pol := range pols {
		opt.Continue = sched.PolicySpec(pol)
		rep, err := Run(mk, opt)
		if err != nil {
			return nil, fmt.Errorf("explore: continue %s: %w", opt.Continue, err)
		}
		reps[i] = rep
	}
	for _, r := range reps {
		if !r.Determinate() {
			return reps, fmt.Errorf("explore: continue %s: %s", r.Continue, r.Summary())
		}
		if r.Reference != reps[0].Reference {
			return reps, fmt.Errorf("explore: continue %s reached a different final state than continue %s",
				r.Continue, reps[0].Continue)
		}
	}
	return reps, nil
}
