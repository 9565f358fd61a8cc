package mesh

import (
	"testing"

	"repro/internal/grid"
)

func BenchmarkGhostExchange3D(b *testing.B) {
	const p = 4
	slabs := grid.SlabDecompose3(64, 64, 64, p, grid.AxisX)
	for _, mode := range []Mode{Sim, Par} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := Run(p, mode, DefaultOptions(), func(c *Comm) int {
					g := slabs[c.Rank()].NewLocal3(1)
					for s := 0; s < 8; s++ {
						c.ExchangeGhostPlanesMulti(grid.AxisX, g)
					}
					return 0
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAllReduceVecAlgorithms(b *testing.B) {
	vec := make([]float64, 1024)
	for _, alg := range []ReduceAlg{RecursiveDoubling, AllToOne} {
		alg := alg
		b.Run(alg.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := Run(8, Sim, DefaultOptions(), func(c *Comm) float64 {
					return c.AllReduceVecAlg(vec, OpSum, alg)[0]
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkRuntimeOverhead(b *testing.B) {
	// Cost of spinning up a run and doing one barrier.
	for _, mode := range []Mode{Sim, Par} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := Run(8, mode, DefaultOptions(), func(c *Comm) int {
					c.Barrier()
					return 0
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
