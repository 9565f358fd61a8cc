// Command archexp regenerates the paper's evaluation: every table and
// figure, the far-field finding, and this reproduction's ablations.
//
// Usage:
//
//	archexp                  run every experiment at full size
//	archexp -exp table1      run one experiment
//	archexp -quick           use reduced workloads (seconds, not minutes)
//
// Experiments: farfield, table1, figure2, rcs, figure1, effort,
// ablations, all.  The determinacy experiment (E4) is cmd/determinacy.
// An unknown name exits 2.
//
// table1 and figure2 are the repository's one speedup study: per P, the
// machine model's time, speedup and efficiency beside this host's wall
// clock and measured speedup.  Each P's near field is checked bitwise
// against the sequential run, and a mismatch exits 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/fdtd"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/mesh"
)

func main() {
	experiments := []string{"farfield", "table1", "figure2", "rcs", "figure1", "effort", "ablations"}
	exp := flag.String("exp", "all", "experiment to run ("+strings.Join(experiments, "|")+"|all)")
	quick := flag.Bool("quick", false, "use reduced workloads")
	flag.Parse()
	if *exp != "all" && !slices.Contains(experiments, *exp) {
		fmt.Fprintf(os.Stderr, "archexp: unknown experiment %q\n", *exp)
		os.Exit(2)
	}

	run := func(name string, f func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		fmt.Printf("\n----- %s -----\n", name)
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "archexp: %s: %v\n", name, err)
			os.Exit(1)
		}
	}

	specC := fdtd.SpecTable1()
	specA := fdtd.SpecFigure2()
	if *quick {
		specC.Steps = 32
		specA.Steps = 16
	}

	run("farfield", func() error {
		spec := specC
		if *quick {
			spec = fdtd.SpecSmall()
		}
		a, err := harness.RunFarFieldAnalysis(spec, 4)
		if err != nil {
			return err
		}
		fmt.Print(a)
		return nil
	})

	run("table1", func() error {
		tab, err := harness.RunSpeedup(harness.SpeedupConfig{
			Spec:  specC,
			Ps:    []int{2, 4, 8},
			Model: machine.SunEthernet(),
			Opt:   fdtd.DefaultOptions(),
			Title: fmt.Sprintf("Table 1: electromagnetics code (Version C), 33x33x33 grid, %d steps", specC.Steps),
		})
		if err != nil {
			return err
		}
		fmt.Print(tab.Format())
		if msg := tab.CheckShape(); msg != "" {
			fmt.Printf("SHAPE WARNING: %s\n", msg)
		}
		return nil
	})

	run("figure2", func() error {
		tab, err := harness.RunSpeedup(harness.SpeedupConfig{
			Spec:  specA,
			Ps:    []int{2, 4, 8, 16},
			Model: machine.IBMSP(),
			Opt:   fdtd.DefaultOptions(),
			Title: fmt.Sprintf("Figure 2: electromagnetics code (Version A), 66x66x66 grid, %d steps", specA.Steps),
		})
		if err != nil {
			return err
		}
		fmt.Print(tab.Format())
		fmt.Println()
		fmt.Print(harness.FigurePlots(tab))
		if msg := tab.CheckShape(); msg != "" {
			fmt.Printf("SHAPE WARNING: %s\n", msg)
		}
		return nil
	})

	run("rcs", func() error {
		// The application's motivating output (§4.1): radar cross
		// section derived from the far-field potentials.
		spec := specC
		spec.Source.Shape = fdtd.PulseRicker
		res, err := fdtd.RunArchetype(spec, 4, mesh.Sim, fdtd.DefaultOptions())
		if err != nil {
			return err
		}
		lo, hi := spec.SourceBandwidth()
		var freqs, sigmas []float64
		for i := 0; i < 16; i++ {
			f := lo + (hi-lo)*float64(i)/15
			pts, err := res.RCS([]float64{f})
			if err != nil {
				continue
			}
			freqs = append(freqs, f)
			sigmas = append(sigmas, pts[0].Sigma)
		}
		fmt.Printf("RCS sweep, observation direction %v (%d frequencies)\n",
			spec.FarField.Dir, len(freqs))
		plot := harness.Plot{
			Title:  "normalised radar cross section vs frequency",
			XLabel: "frequency (c/cell)", YLabel: "sigma (norm.)",
			Series: []harness.Series{{Name: "RCS", Marker: '*', X: freqs, Y: sigmas}},
		}
		fmt.Print(plot.Render())
		return nil
	})

	run("figure1", func() error {
		rep, err := harness.RunFigure1()
		if err != nil {
			return err
		}
		fmt.Print(rep)
		return nil
	})

	run("effort", func() error {
		for _, v := range []string{"A", "C"} {
			fmt.Print(harness.RunEffort(v))
		}
		return nil
	})

	run("ablations", func() error {
		spec := specC
		if *quick {
			spec.Steps = 16
		}
		model := machine.SunEthernet()
		type variant struct {
			name string
			opt  fdtd.Options
		}
		base := fdtd.DefaultOptions()
		noCombine := base
		noCombine.Mesh.Combine = false
		allToOne := base
		allToOne.Mesh.ReduceAlg = mesh.AllToOne
		concIO := base
		concIO.HostIO = false
		variants := []variant{
			{"baseline (combine, recursive-doubling, host I/O)", base},
			{"no message combining", noCombine},
			{"all-to-one reduction", allToOne},
			{"concurrent I/O (no host scatter)", concIO},
		}
		fmt.Printf("%-48s %10s %10s %12s %12s %12s\n",
			"variant", "msgs", "MB", "compute (s)", "comm (s)", "total (s)")
		report := func(name string, prof *machine.Profile) {
			bd, tot := model.Breakdown(prof), prof.Totals()
			fmt.Printf("%-48s %10d %10.2f %12.3f %12.3f %12.3f\n", name,
				tot.Messages, float64(tot.Bytes)/1e6,
				bd.Compute, bd.Comm, bd.Compute+bd.Comm)
		}
		for _, v := range variants {
			opt := v.opt
			opt.Mesh.Profile = machine.NewProfile(8)
			if _, err := fdtd.RunArchetype(spec, 8, mesh.Sim, opt); err != nil {
				return err
			}
			report(v.name, opt.Mesh.Profile)
		}
		// Decomposition-shape ablation at the same process count.
		opt2d := base
		opt2d.Mesh.Profile = machine.NewProfile(8)
		if _, err := fdtd.RunArchetype2D(spec, 4, 2, mesh.Sim, opt2d); err != nil {
			return err
		}
		report("2-D decomposition (4x2 blocks)", opt2d.Mesh.Profile)
		return nil
	})
}
