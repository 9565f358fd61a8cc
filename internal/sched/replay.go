package sched

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// Schedule is the serialisable form of a recorded interleaving: a
// prefix of forced picks (one rank per scheduling point, in order)
// followed by the PolicySpec of the continuation policy that takes
// over once the prefix is exhausted.  The schedule explorer emits
// these as replayable artifacts; `determinacy -replay` consumes them.
type Schedule struct {
	// Picks is the forced pick sequence: Picks[k] is the rank that
	// acts at scheduling point k.
	Picks []int `json:"picks"`
	// Continue is the PolicySpec of the continuation policy (default
	// "lowest").  It may not itself be a replay spec.
	Continue string `json:"continue,omitempty"`
}

// Policy builds a fresh Replay policy for the schedule.
func (s Schedule) Policy() (*Replay, error) {
	spec := s.Continue
	if spec == "" {
		spec = "lowest"
	}
	if strings.HasPrefix(spec, "replay:") {
		return nil, fmt.Errorf("sched: schedule continuation %q may not itself be a replay", spec)
	}
	cont, err := ParsePolicy(spec)
	if err != nil {
		return nil, err
	}
	return NewReplay(s.Picks, cont), nil
}

// Save writes the schedule as JSON.
func (s Schedule) Save(path string) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// LoadSchedule reads a Schedule JSON file.
func LoadSchedule(path string) (Schedule, error) {
	var s Schedule
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("sched: schedule %s: %v", path, err)
	}
	if err := s.Validate(); err != nil {
		return s, fmt.Errorf("sched: schedule %s: %v", path, err)
	}
	return s, nil
}

// Validate checks a decoded schedule: every forced pick must name a
// rank, so none may be negative.  Every loader of a recorded schedule
// calls it.
func (s Schedule) Validate() error {
	for i, p := range s.Picks {
		if p < 0 {
			return fmt.Errorf("pick %d is negative (%d)", i, p)
		}
	}
	return nil
}

// Replay forces a recorded prefix of picks and then hands over to a
// continuation policy.  It is the mechanism by which the DPOR explorer
// steers execution into an alternative branch of the schedule tree:
// the prefix pins the interleaving up to (and including) the reversed
// scheduling point, and the continuation completes the run.
//
// A Replay is single-use: each controlled run needs a fresh instance
// (build one per run via Schedule.Policy or NewReplay), because the
// divergence record accumulates across Pick calls.
type Replay struct {
	picks []int
	cont  Policy
	path  string // source file when built by ParsePolicy("replay:...")

	divergedAt int // first step whose forced pick was disabled, -1 if none
}

// NewReplay returns a replay policy forcing the given picks, then
// continuing with cont.  cont must not be nil.
func NewReplay(picks []int, cont Policy) *Replay {
	if cont == nil {
		panic("sched: NewReplay: nil continuation policy")
	}
	return &Replay{picks: picks, cont: cont, divergedAt: -1}
}

// Name implements Policy.
func (r *Replay) Name() string { return "replay" }

// Spec returns the policy's PolicySpec form.  Only replays loaded from
// a schedule file have a parseable spec; ad hoc replays render as
// "replay" with no argument.
func (r *Replay) Spec() string {
	if r.path != "" {
		return "replay:" + r.path
	}
	return "replay"
}

// Picks returns the forced prefix.
func (r *Replay) Picks() []int { return r.picks }

// Pick implements Policy.  Within the prefix it forces the recorded
// pick; if that rank is not currently enabled — the schedule no longer
// matches the network, itself evidence of schedule-dependent structure
// — the divergence is recorded and the lowest enabled rank substitutes
// so the run can complete.  Past the prefix the continuation decides.
func (r *Replay) Pick(enabled []int, step int) int {
	if step < len(r.picks) {
		want := r.picks[step]
		if contains(enabled, want) {
			return want
		}
		if r.divergedAt < 0 {
			r.divergedAt = step
		}
		return enabled[0]
	}
	return r.cont.Pick(enabled, step)
}

// Diverged reports whether any forced pick was disabled when its turn
// came, and the first step at which that happened.
func (r *Replay) Diverged() (step int, ok bool) {
	return r.divergedAt, r.divergedAt >= 0
}
