// Package harness runs the repository's reproduction experiments and
// formats their results in the shape of the paper's tables and figures.
//
// Experiment identifiers (see DESIGN.md §4):
//
//	E1  near-field correctness (SSP ≡ sequential, bitwise)
//	E2  far-field divergence (reordered FP summation) + the fix
//	E3  parallel ≡ SSP, every execution (Theorem 1 in practice)
//	E4  determinacy of arbitrary interleavings
//	E5  Table 1 (Version C, 33³, 128 steps, network of Suns)
//	E6  Figure 2 (Version A, 66³, 512 steps, IBM SP)
//	E7  ease-of-use proxy (refinement-stage deltas)
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

// Row is one line of a speedup table.
type Row struct {
	Label      string
	P          int
	Seconds    float64
	Speedup    float64
	Efficiency float64
	Ideal      float64 // ideal speedup (== P); 0 to omit
}

// Table is a formatted experiment result.
type Table struct {
	Title   string
	Machine string
	Rows    []Row
	Notes   []string
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	if t.Machine != "" {
		fmt.Fprintf(&b, "machine model: %s\n", t.Machine)
	}
	hasIdeal := false
	for _, r := range t.Rows {
		if r.Ideal > 0 {
			hasIdeal = true
		}
	}
	if hasIdeal {
		fmt.Fprintf(&b, "%-16s %12s %10s %12s %8s\n", "", "time (s)", "speedup", "efficiency", "ideal")
	} else {
		fmt.Fprintf(&b, "%-16s %12s %10s %12s\n", "", "time (s)", "speedup", "efficiency")
	}
	for _, r := range t.Rows {
		if hasIdeal {
			ideal := ""
			if r.Ideal > 0 {
				ideal = fmt.Sprintf("%.0f", r.Ideal)
			}
			fmt.Fprintf(&b, "%-16s %12.3f %10.2f %12.2f %8s\n", r.Label, r.Seconds, r.Speedup, r.Efficiency, ideal)
		} else {
			fmt.Fprintf(&b, "%-16s %12.3f %10.2f %12.2f\n", r.Label, r.Seconds, r.Speedup, r.Efficiency)
		}
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (header + one row
// per entry), for downstream plotting tools.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString("label,procs,seconds,speedup,efficiency,ideal\n")
	for _, r := range t.Rows {
		ideal := ""
		if r.Ideal > 0 {
			ideal = fmt.Sprintf("%g", r.Ideal)
		}
		fmt.Fprintf(&b, "%q,%d,%g,%g,%g,%s\n",
			r.Label, r.P, r.Seconds, r.Speedup, r.Efficiency, ideal)
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

// RunSpeedup reproduces a speedup table/figure: it times the original
// sequential program on this host, calibrates the machine model's
// compute cost from that measurement (unless disabled), executes the
// archetype program for each process count while recording its real
// work/message profile, and reports the model's simulated execution
// times and the resulting speedups.
func RunSpeedup(cfg SpeedupConfig) (*Table, error) {
	if len(cfg.Ps) == 0 {
		cfg.Ps = []int{2, 4, 8}
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
			Speedup: 1, Efficiency: 1,
		}},
	}
	if !cfg.CalibrateOff {
		table.Notes = append(table.Notes, fmt.Sprintf(
			"compute cost calibrated from this host's sequential run: %.3f s for %.0f work units",
			seqWall, seq.Work))
	}
	table.Notes = append(table.Notes,
		"parallel times are simulated from real work/message profiles (see DESIGN.md substitutions)")

	for _, p := range cfg.Ps {
		opt := cfg.Opt
		opt.Mesh.Profile = machine.NewProfile(p)
		arch, err := fdtd.RunArchetype(cfg.Spec, p, mesh.Sim, opt)
		if err != nil {
			return nil, err
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
			Ideal:      float64(p),
		})
	}
	return table, nil
}

// Table1 reproduces the paper's Table 1: execution times and speedups
// for the electromagnetics code (Version C), 33x33x33 grid, 128 steps,
// on a network-of-Suns machine model, P in {2, 4, 8}.
func Table1() (*Table, error) {
	return RunSpeedup(SpeedupConfig{
		Spec:  fdtd.SpecTable1(),
		Ps:    []int{2, 4, 8},
		Model: machine.SunEthernet(),
		Opt:   fdtd.DefaultOptions(),
		Title: "Table 1: electromagnetics code (Version C), 33x33x33 grid, 128 steps",
	})
}

// Figure2 reproduces the paper's Figure 2: execution times and
// speedups for Version A, 66x66x66 grid, 512 steps, on an IBM SP
// machine model, with the ideal-speedup series alongside.
func Figure2() (*Table, error) {
	return RunSpeedup(SpeedupConfig{
		Spec:  fdtd.SpecFigure2(),
		Ps:    []int{2, 4, 8, 16},
		Model: machine.IBMSP(),
		Opt:   fdtd.DefaultOptions(),
		Title: "Figure 2: electromagnetics code (Version A), 66x66x66 grid, 512 steps",
	})
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
