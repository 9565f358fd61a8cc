package harness

import (
	"fmt"
	"strings"

	"repro/internal/fdtd"
	"repro/internal/mesh"
	"repro/internal/sched"
)

// DeterminacyReport is the E4 result for the full application: the
// archetype program executed under many distinct maximal interleavings,
// all required to reach the same final state (Theorem 1).
type DeterminacyReport struct {
	Spec     fdtd.Spec
	P        int
	Runs     []string
	Diverged []string
}

// Deterministic reports whether every interleaving agreed.
func (r *DeterminacyReport) Deterministic() bool { return len(r.Diverged) == 0 }

// String renders the report.
func (r *DeterminacyReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== Determinacy (E4): FDTD archetype program, P=%d ===\n", r.P)
	fmt.Fprintf(&b, "interleavings tried: %s\n", strings.Join(r.Runs, ", "))
	if r.Deterministic() {
		fmt.Fprintf(&b, "verdict: DETERMINATE — all %d maximal interleavings reached the same final state\n", len(r.Runs))
	} else {
		fmt.Fprintf(&b, "verdict: NOT DETERMINATE — diverging runs: %s\n", strings.Join(r.Diverged, ", "))
	}
	return b.String()
}

// RunDeterminacy executes the archetype FDTD program under every
// default scheduling policy plus several free-running parallel
// executions and verifies that the final state (fields, probe, far
// field) is identical across all of them.
func RunDeterminacy(spec fdtd.Spec, p, parReps int) (*DeterminacyReport, error) {
	opt := fdtd.DefaultOptions()
	// fdtd.RunArchetype wires this same body to the Sim/Par runtimes;
	// re-running it here under arbitrary policies is what makes E4 a
	// test of Theorem 1 rather than of one fixed schedule.
	body, err := fdtd.SPMD(spec, p, opt)
	if err != nil {
		return nil, err
	}
	rep := &DeterminacyReport{Spec: spec, P: p}
	var ref *fdtd.Result

	check := func(label string, res *fdtd.Result) {
		rep.Runs = append(rep.Runs, label)
		if ref == nil {
			ref = res
			return
		}
		ok := ref.NearFieldEqual(res)
		if spec.IsVersionC() {
			ok = ok && ref.FarFieldEqual(res)
		}
		if !ok {
			rep.Diverged = append(rep.Diverged, label)
		}
	}

	for _, pol := range sched.DefaultPolicies(4) {
		results, err := mesh.RunControlledPolicy(p, pol, opt.Mesh, body)
		if err != nil {
			return nil, fmt.Errorf("harness: policy %s: %w", pol.Name(), err)
		}
		check(pol.Name(), results[0])
	}
	for k := 0; k < parReps; k++ {
		res, err := fdtd.RunArchetype(spec, p, mesh.Par, opt)
		if err != nil {
			return nil, err
		}
		check(fmt.Sprintf("goroutines#%d", k), res)
	}
	return rep, nil
}
