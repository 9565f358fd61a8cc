// Quickstart: parallelize a 2-D heat-diffusion solver with the mesh
// archetype.
//
// The program is written once, in SPMD style, against the archetype's
// communication library (ghost exchange, max-reduction, gather) and
// executed under both runtimes:
//
//   - archetype.Sim — the sequential simulated-parallel version, and
//   - archetype.Par — the real parallel version,
//
// whose results are bitwise identical (Theorem 1).  The convergence
// loop demonstrates the archetype's "looping based on a variable whose
// value is the result of a reduction".
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	archetype "repro"
)

const (
	nx, ny = 64, 48 // global grid
	procs  = 4
	limit  = 500
	tol    = 1e-6
)

// heat is the SPMD program: each process owns a block of rows, the
// p x 1 case of the archetype's block distribution.  The grids are 3-D
// grids one cell deep in z, so the program uses the same exchange and
// gather as the 3-D FDTD code.
func heat(c *archetype.Comm) []float64 {
	topo := archetype.NewTopo2D(nx, ny, c.P(), 1)
	rg, _ := topo.Block(c.Rank())

	cur := archetype.NewGrid3(rg.Len(), ny, 1, 1)
	next := archetype.NewGrid3(rg.Len(), ny, 1, 1)
	// Initial condition: a hot square in the global centre.
	cur.FillFunc(func(i, j, _ int) float64 {
		gi := rg.Lo + i
		if gi > nx/2-8 && gi < nx/2+8 && j > ny/2-8 && j < ny/2+8 {
			return 100
		}
		return 0
	})

	iters := 0
	for ; iters < limit; iters++ {
		// Refresh ghost rows from the neighbouring processes of the
		// p x 1 chain.
		c.ExchangeGhostPlanesMulti(archetype.AxisX, cur)
		// Pure grid operation: new values from old neighbours only.
		maxDelta := 0.0
		for i := 0; i < cur.NX(); i++ {
			gi := rg.Lo + i
			for j := 0; j < ny; j++ {
				up, down, left, right := cur.At(i-1, j, 0), cur.At(i+1, j, 0), 0.0, 0.0
				if gi == 0 {
					up = 0
				}
				if gi == nx-1 {
					down = 0
				}
				if j > 0 {
					left = cur.At(i, j-1, 0)
				}
				if j < ny-1 {
					right = cur.At(i, j+1, 0)
				}
				v := 0.25 * (up + down + left + right)
				d := v - cur.At(i, j, 0)
				if d < 0 {
					d = -d
				}
				if d > maxDelta {
					maxDelta = d
				}
				next.Set(i, j, 0, v)
			}
		}
		cur, next = next, cur
		c.Work(float64(cur.NX() * ny))
		// Global convergence check: a reduction controls the loop.
		if c.AllReduce(maxDelta, archetype.OpMax) < tol {
			iters++
			break
		}
	}

	// Gather the temperature field onto the host process.
	global := c.Gather3DBlocks(cur, topo, 0)
	if c.Rank() != 0 {
		return []float64{float64(iters)}
	}
	total := 0.0
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			total += global.At(i, j, 0)
		}
	}
	return []float64{float64(iters), total, global.At(nx/2, ny/2, 0)}
}

func main() {
	fmt.Println("2-D heat diffusion via the mesh archetype")
	fmt.Printf("grid %dx%d, %d processes, tolerance %g\n\n", nx, ny, procs, tol)

	sim, err := archetype.RunMesh(procs, archetype.Sim, archetype.DefaultMeshOptions(), heat)
	if err != nil {
		log.Fatal(err)
	}
	par, err := archetype.RunMesh(procs, archetype.Par, archetype.DefaultMeshOptions(), heat)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("simulated-parallel: converged after %.0f iterations, heat=%.9f, centre=%.9f\n",
		sim[0][0], sim[0][1], sim[0][2])
	fmt.Printf("parallel:           converged after %.0f iterations, heat=%.9f, centre=%.9f\n",
		par[0][0], par[0][1], par[0][2])

	identical := len(sim[0]) == len(par[0])
	for i := range sim[0] {
		if sim[0][i] != par[0][i] {
			identical = false
		}
	}
	fmt.Printf("\nbitwise identical across runtimes (Theorem 1): %v\n", identical)
}
