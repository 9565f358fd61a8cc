// scatter2d runs the 2-D TMz FDTD solver (internal/wave2d) on a 2-D
// process grid: a Ricker pulse scattering off a lossy bar, computed on
// 2x3 = 6 processes with ghost exchange along both axes, then gathered
// and rendered as ASCII art.
//
// The run is executed under both runtimes and compared bitwise, like
// every other application in this repository.
//
// Run with: go run ./examples/scatter2d
package main

import (
	"fmt"
	"log"
	"math"

	"repro/internal/mesh"
	"repro/internal/wave2d"
)

func spec() wave2d.Spec {
	return wave2d.Spec{
		NX: 72, NY: 48,
		Steps: 104,
		DT:    0.5,
		SI:    18, SJ: 24,
		Delay: 12, Width: 4,
		PI: 60, PJ: 24,
		Sigma: func(i, j int) float64 {
			// A vertical lossy bar between source and probe.
			if i >= 36 && i < 40 && j >= 12 && j < 36 {
				return 1.5
			}
			return 0
		},
	}
}

func render(res *wave2d.Result) string {
	shades := []byte(" .:-=+*#%@")
	// Normalise to the field's current dynamic range.
	peak := 0.0
	for i := 0; i < res.Ez.NX(); i++ {
		for j := 0; j < res.Ez.NY(); j++ {
			if a := math.Abs(res.Ez.At(i, j, 0)); a > peak {
				peak = a
			}
		}
	}
	if peak == 0 {
		peak = 1
	}
	out := make([]byte, 0, res.Ez.NX()*(res.Ez.NY()+1))
	// Render y as rows for a landscape aspect.
	for j := res.Ez.NY() - 1; j >= 0; j-- {
		for i := 0; i < res.Ez.NX(); i++ {
			a := math.Abs(res.Ez.At(i, j, 0)) / peak
			idx := int(math.Sqrt(a) * float64(len(shades)-1))
			out = append(out, shades[idx])
		}
		out = append(out, '\n')
	}
	return string(out)
}

func main() {
	s := spec()
	sim, err := wave2d.RunArchetype(s, 2, 3, mesh.Sim, mesh.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	par, err := wave2d.RunArchetype(s, 2, 3, mesh.Par, mesh.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("2-D TMz scattering, %dx%d grid on a 2x3 process grid, %d steps\n\n",
		s.NX, s.NY, s.Steps)
	fmt.Print(render(sim))
	fmt.Printf("\n|Ez| snapshot after %d steps (source left, lossy bar at centre casting a shadow)\n", s.Steps)
	fmt.Printf("simulated-parallel == parallel (bitwise): %v\n", sim.Equal(par))
}
