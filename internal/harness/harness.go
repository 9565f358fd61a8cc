// Package harness runs the repository's reproduction experiments and
// formats their results in the shape of the paper's tables and figures.
//
// Experiment identifiers (see DESIGN.md §4).  E1 and E3 are rows of
// internal/fdtd's TestOneProgramIdentity and E4 is cmd/determinacy;
// the others run here:
//
//	E1  near-field correctness (SSP ≡ sequential, bitwise)
//	E2  far-field divergence (reordered FP summation) + the fix
//	E3  parallel ≡ SSP, every execution (Theorem 1 in practice)
//	E4  determinacy of arbitrary interleavings
//	E5  Table 1 (Version C, 33³, 128 steps, network of Suns)
//	E6  Figure 2 (Version A, 66³, 512 steps, IBM SP)
//	E7  ease-of-use proxy (stage-listing deltas)
//	E8  Figure 1 correspondence (simulated vs parallel ordering)
package harness

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/fdtd"
	"repro/internal/machine"
	"repro/internal/mesh"
)

// Row is one line of a speedup table.  Seconds, Speedup and
// Efficiency are the machine model's; Wall and Measured are this
// host's wall clock and the speedup it gives.
type Row struct {
	Label      string
	P          int
	Seconds    float64
	Speedup    float64
	Efficiency float64
	Wall       float64
	Measured   float64
}

// Table is a formatted experiment result.
type Table struct {
	Title   string
	Machine string
	Rows    []Row
	Notes   []string
}

// Format renders the table as aligned text.  The ideal speedup of a
// parallel row is its P.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	if t.Machine != "" {
		fmt.Fprintf(&b, "machine model: %s\n", t.Machine)
	}
	fmt.Fprintf(&b, "%-16s %12s %10s %12s %8s %10s %11s\n",
		"", "time (s)", "speedup", "efficiency", "ideal", "wall (s)", "measured x")
	for _, r := range t.Rows {
		ideal := ""
		if r.P > 1 {
			ideal = fmt.Sprint(r.P)
		}
		fmt.Fprintf(&b, "%-16s %12.3f %10.2f %12.2f %8s %10.3f %11.2f\n",
			r.Label, r.Seconds, r.Speedup, r.Efficiency, ideal, r.Wall, r.Measured)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// SpeedupConfig configures a speedup experiment.
type SpeedupConfig struct {
	Spec  fdtd.Spec
	Ps    []int // parallel process counts (sequential row is implicit)
	Model machine.Model
	Opt   fdtd.Options
	Title string
	// Calibrate anchors the model's per-work-unit cost to this host's
	// measured sequential throughput (default true behaviour when
	// CalibrateOff is false).
	CalibrateOff bool
}

// RunSpeedup reproduces a speedup table/figure.  It times the original
// sequential program on this host after one unmeasured warm-up, and
// calibrates the machine model's compute cost from that measurement
// (unless disabled).  For each process count it then runs the
// archetype program on the parallel runtime (mesh.Par), timing it and
// recording its work/message profile, and checks its near field
// bitwise against the sequential run's; a mismatch is an error.  Each
// row carries the model's simulated time and speedup beside the
// measured wall clock and speedup.  The profile is the same under
// mesh.Sim and mesh.Par, so the modelled columns do not depend on the
// runtime.
func RunSpeedup(cfg SpeedupConfig) (*Table, error) {
	if len(cfg.Ps) == 0 {
		cfg.Ps = []int{2, 4, 8}
	}
	// The warm-up keeps first-run costs (page faults, pool population)
	// that the later runs skip out of the measured reference.
	if _, err := fdtd.RunSequential(cfg.Spec); err != nil {
		return nil, err
	}
	start := time.Now()
	seq, err := fdtd.RunSequential(cfg.Spec)
	if err != nil {
		return nil, err
	}
	seqWall := time.Since(start).Seconds()
	model := cfg.Model
	if !cfg.CalibrateOff {
		model = model.Calibrate(seq.Work, seqWall)
	}
	seqModel := seq.Work * model.SecPerWork

	table := &Table{
		Title:   cfg.Title,
		Machine: model.Name,
		Rows: []Row{{
			Label: "Sequential", P: 1, Seconds: seqModel,
			Speedup: 1, Efficiency: 1, Wall: seqWall, Measured: 1,
		}},
	}
	if !cfg.CalibrateOff {
		table.Notes = append(table.Notes, fmt.Sprintf(
			"compute cost calibrated from this host's sequential run: %.3f s for %.0f work units",
			seqWall, seq.Work))
	}
	table.Notes = append(table.Notes,
		"parallel times are simulated from real work/message profiles (see DESIGN.md substitutions)",
		"wall and measured x are this host's; every P's near field is bitwise equal to the sequential run's")

	for _, p := range cfg.Ps {
		opt := cfg.Opt
		opt.Mesh.Profile = machine.NewProfile(p)
		start := time.Now()
		arch, err := fdtd.RunArchetype(cfg.Spec, p, mesh.Par, opt)
		if err != nil {
			return nil, err
		}
		wall := time.Since(start).Seconds()
		if !seq.NearFieldEqual(arch) {
			return nil, fmt.Errorf("harness: near field at p=%d differs from the sequential run", p)
		}
		if arch.Work != seq.Work {
			return nil, fmt.Errorf("harness: work mismatch at p=%d: %v vs %v", p, arch.Work, seq.Work)
		}
		parTime := model.Time(opt.Mesh.Profile)
		sp := machine.Speedup(seqModel, parTime)
		table.Rows = append(table.Rows, Row{
			Label:      fmt.Sprintf("Parallel, P=%d", p),
			P:          p,
			Seconds:    parTime,
			Speedup:    sp,
			Efficiency: machine.Efficiency(sp, p),
			Wall:       wall,
			Measured:   machine.Speedup(seqWall, wall),
		})
	}
	return table, nil
}

// CheckShape verifies the paper's qualitative claims on a speedup
// table: speedups are > 1, monotonically increasing with P, and
// sub-linear (below ideal).  It returns a description of the first
// violation, or "".
func (t *Table) CheckShape() string {
	prev := 1.0
	for _, r := range t.Rows[1:] {
		if r.Speedup <= 1 {
			return fmt.Sprintf("P=%d: speedup %.2f not > 1", r.P, r.Speedup)
		}
		if r.Speedup <= prev {
			return fmt.Sprintf("P=%d: speedup %.2f did not increase (prev %.2f)", r.P, r.Speedup, prev)
		}
		if r.Speedup >= float64(r.P) {
			return fmt.Sprintf("P=%d: speedup %.2f not sub-linear", r.P, r.Speedup)
		}
		prev = r.Speedup
	}
	return ""
}

// MinEfficiency returns the lowest parallel efficiency in the table.
func (t *Table) MinEfficiency() float64 {
	min := math.Inf(1)
	for _, r := range t.Rows[1:] {
		if r.Efficiency < min {
			min = r.Efficiency
		}
	}
	return min
}
