package explore

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/sched"
)

// Artifact is the replayable JSON form of a minimized divergence: the
// forced schedule, the network it was recorded against, the rendered
// trace, and both fingerprints.  `determinacy -replay file.json`
// reconstructs the named network, re-executes the schedule, and
// verifies the divergent final state reproduces bitwise.
type Artifact struct {
	Version  int            `json:"version"`
	Network  string         `json:"network"` // registry name understood by cmd/determinacy
	P        int            `json:"p"`
	Mode     string         `json:"mode"` // dependence mode the divergence was found under
	Schedule sched.Schedule `json:"schedule"`
	Trace    []TraceLine    `json:"trace,omitempty"`
	// Reference is the fingerprint every schedule should reach;
	// Outcome is the divergent fingerprint the schedule reproduces.
	Reference string `json:"reference"`
	Outcome   string `json:"outcome"`
}

// ArtifactVersion is the current artifact schema version.
const ArtifactVersion = 1

// Artifact packages a minimized divergence for replay.
func (m *Minimized) Artifact(network string, p int, mode DepMode, contSpec string) *Artifact {
	return &Artifact{
		Version:   ArtifactVersion,
		Network:   network,
		P:         p,
		Mode:      mode.String(),
		Schedule:  m.Schedule(contSpec),
		Trace:     append([]TraceLine(nil), m.Trace...),
		Reference: m.Reference,
		Outcome:   m.Outcome,
	}
}

// Save writes the artifact as indented JSON.
func (a *Artifact) Save(path string) error {
	b, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// LoadArtifact reads and validates an artifact file.
func LoadArtifact(path string) (*Artifact, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	a, err := parseArtifact(b)
	if err != nil {
		return nil, fmt.Errorf("explore: artifact %s: %v", path, err)
	}
	return a, nil
}

// parseArtifact decodes and validates an artifact's JSON.  An empty
// trace decodes as nil, the form Save writes, so a loaded artifact
// saves and reloads equal.
func parseArtifact(b []byte) (*Artifact, error) {
	var a Artifact
	if err := json.Unmarshal(b, &a); err != nil {
		return nil, err
	}
	if a.Version != ArtifactVersion {
		return nil, fmt.Errorf("version %d, want %d", a.Version, ArtifactVersion)
	}
	if a.Network == "" {
		return nil, fmt.Errorf("missing network name")
	}
	if err := a.Schedule.Validate(); err != nil {
		return nil, fmt.Errorf("schedule: %v", err)
	}
	if len(a.Trace) == 0 {
		a.Trace = nil
	}
	return &a, nil
}

// ReplayOutcome re-executes the network under a recorded schedule and
// returns the fingerprint it reaches.  The schedule's own continuation
// policy is used.  An infeasible schedule (a forced pick disabled when
// its turn came) is an error: the artifact no longer matches the
// network.
func ReplayOutcome[T, R any](mk func() []sched.Proc[T, R], opt Options[R], s sched.Schedule) (string, error) {
	opt.Continue = s.Continue
	run, err := newRunner(mk, &opt)
	if err != nil {
		return "", err
	}
	rr, err := run(s.Picks, nil)
	if err != nil {
		return "", err
	}
	if rr.infeasible {
		return rr.outcome, fmt.Errorf("explore: schedule is infeasible against this network (a forced pick was disabled)")
	}
	return rr.outcome, nil
}
