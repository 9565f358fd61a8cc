// Package core implements the paper's primary contribution: the
// methodology of parallelizing a sequential program by stepwise
// refinement under the guidance of a parallel programming archetype.
//
// The methodology's artifacts are program *versions* — the original
// sequential program, intermediate sequential versions, the sequential
// simulated-parallel (SSP) version, and the final parallel program —
// connected by small semantics-preserving transformations.  All but the
// last transformation stay in the sequential domain and are checked by
// testing ("more amenable to checking by testing and debugging"); the
// last transformation, SSP to parallel, is the one Theorem 1 justifies
// formally, and the schedule explorer (internal/explore) checks it: it
// enumerates the parallel program's reduced schedule space and verifies
// that every schedule terminates in the same final state.
package core

import (
	"fmt"
	"reflect"
	"strings"
)

// StageKind classifies a refinement stage by the domain it lives in.
type StageKind int

// Stage kinds, in the order they appear in a full refinement.
const (
	// Sequential is the original program or a sequential-to-sequential
	// refinement of it.
	Sequential StageKind = iota
	// SimulatedParallel is a sequential simulated-parallel version:
	// partitioned data, alternating local blocks and data exchanges.
	SimulatedParallel
	// Parallel is the message-passing program produced by the
	// mechanical Theorem-1 transformation.
	Parallel
)

func (k StageKind) String() string {
	switch k {
	case Sequential:
		return "sequential"
	case SimulatedParallel:
		return "simulated-parallel"
	case Parallel:
		return "parallel"
	}
	return fmt.Sprintf("StageKind(%d)", int(k))
}

// Stage is one version of the program in a refinement pipeline.
type Stage[R any] struct {
	Name string
	Kind StageKind
	// Exact declares that this stage must produce results bitwise equal
	// to the previous stage.  Stages that deliberately change results —
	// such as the paper's far-field summation reordering, which assumed
	// floating-point associativity — set Exact to false and are
	// reported but not failed.
	Exact bool
	// Run executes this version and returns its observable result.
	Run func() (R, error)
	// Source optionally carries a listing of the stage (pseudo-code or
	// real); consecutive listings feed the human-effort proxy metric.
	Source string
}

// Pipeline verifies a stepwise refinement: each stage's result is
// compared with the previous stage's under Equal.
type Pipeline[R any] struct {
	Name   string
	Equal  func(a, b R) bool // nil means reflect.DeepEqual
	Stages []Stage[R]
}

// StageReport records the outcome of one stage of Verify.
type StageReport struct {
	Name        string
	Kind        StageKind
	Exact       bool
	EqualToPrev bool // meaningless for the first stage
	// LinesAdded/LinesRemoved measure the textual delta from the
	// previous stage's Source (0 when either listing is empty).
	LinesAdded, LinesRemoved int
	Err                      error
}

// Report is the outcome of verifying a pipeline.
type Report[R any] struct {
	Pipeline string
	Stages   []StageReport
	// Results holds each stage's observable result, index-aligned with
	// Stages, for further inspection (e.g. measuring how far a
	// non-exact stage drifted).
	Results []R
}

// OK reports whether every stage ran without error and every Exact
// stage matched its predecessor.
func (r *Report[R]) OK() bool {
	for i, s := range r.Stages {
		if s.Err != nil {
			return false
		}
		if i > 0 && s.Exact && !s.EqualToPrev {
			return false
		}
	}
	return true
}

// String renders the report as a table of stages.
func (r *Report[R]) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "refinement %q:\n", r.Pipeline)
	for i, s := range r.Stages {
		status := "ok"
		switch {
		case s.Err != nil:
			status = "ERROR: " + s.Err.Error()
		case i == 0:
			status = "baseline"
		case s.EqualToPrev:
			status = "identical to previous stage"
		case s.Exact:
			status = "MISMATCH (refinement violated)"
		default:
			status = "differs from previous stage (declared non-exact)"
		}
		fmt.Fprintf(&b, "  %-28s [%s] %s", s.Name, s.Kind, status)
		if s.LinesAdded+s.LinesRemoved > 0 {
			fmt.Fprintf(&b, " (delta: +%d/-%d lines)", s.LinesAdded, s.LinesRemoved)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Verify runs every stage in order and compares neighbours.  It
// returns an error only when pipeline execution itself is impossible
// (no stages); stage failures are recorded in the report so callers
// can distinguish expected non-exact drift from violations.
func (p *Pipeline[R]) Verify() (*Report[R], error) {
	if len(p.Stages) == 0 {
		return nil, fmt.Errorf("core: pipeline %q has no stages", p.Name)
	}
	eq := p.Equal
	if eq == nil {
		eq = func(a, b R) bool { return reflect.DeepEqual(a, b) }
	}
	rep := &Report[R]{Pipeline: p.Name}
	var prev R
	havePrev := false
	for i, st := range p.Stages {
		sr := StageReport{Name: st.Name, Kind: st.Kind, Exact: st.Exact}
		if i > 0 && st.Source != "" && p.Stages[i-1].Source != "" {
			sr.LinesAdded, sr.LinesRemoved = DiffLines(p.Stages[i-1].Source, st.Source)
		}
		res, err := st.Run()
		if err != nil {
			sr.Err = err
			rep.Stages = append(rep.Stages, sr)
			var zero R
			rep.Results = append(rep.Results, zero)
			continue
		}
		if havePrev {
			sr.EqualToPrev = eq(prev, res)
		}
		prev, havePrev = res, true
		rep.Stages = append(rep.Stages, sr)
		rep.Results = append(rep.Results, res)
	}
	return rep, nil
}

// DiffLines computes the number of lines added and removed between two
// listings, via longest-common-subsequence.  It is the proxy this
// reproduction uses for the paper's person-days "ease of use" numbers:
// the human effort of a transformation scales with the text it touches.
func DiffLines(a, b string) (added, removed int) {
	al := splitLines(a)
	bl := splitLines(b)
	n, m := len(al), len(bl)
	// LCS table; listings in this repo are small, so O(n*m) is fine.
	dp := make([][]int, n+1)
	for i := range dp {
		dp[i] = make([]int, m+1)
	}
	for i := n - 1; i >= 0; i-- {
		for j := m - 1; j >= 0; j-- {
			if al[i] == bl[j] {
				dp[i][j] = dp[i+1][j+1] + 1
			} else if dp[i+1][j] >= dp[i][j+1] {
				dp[i][j] = dp[i+1][j]
			} else {
				dp[i][j] = dp[i][j+1]
			}
		}
	}
	lcs := dp[0][0]
	return m - lcs, n - lcs
}

func splitLines(s string) []string {
	s = strings.TrimRight(s, "\n")
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}
