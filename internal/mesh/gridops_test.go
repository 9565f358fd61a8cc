package mesh

import (
	"reflect"
	"testing"

	"repro/internal/grid"
	"repro/internal/machine"
)

// buildLocal2 fills a local 2-D section so that every interior cell
// holds its unique global value f(globalX, y).
func buildLocal2(rg grid.Range, ny, ghost int, f func(gx, y int) float64) *grid.G2 {
	g := grid.New2(rg.Len(), ny, ghost)
	g.FillFunc(func(i, j int) float64 { return f(rg.Lo+i, j) })
	return g
}

// TestExchangeGhostRows exchanges the ghost rows of a p x 1 block
// distribution (rows split, columns whole), combined and not, under
// both runtimes.
func TestExchangeGhostRows(t *testing.T) {
	f := func(gx, y int) float64 { return float64(1000*gx + y) }
	const nx, ny = 13, 4
	for _, combine := range []bool{true, false} {
		for _, mode := range bothModes {
			for _, p := range []int{2, 3, 5} {
				topo := NewTopo2D(nx, ny, p, 1)
				ranges := topo.XRanges
				opt := DefaultOptions()
				opt.Combine = combine
				res, err := Run(p, mode, opt, func(c *Comm) []float64 {
					rg := ranges[c.Rank()]
					g := buildLocal2(rg, ny, 1, f)
					c.ExchangeGhost2D(g, topo, false)
					// Return the ghost rows for verification.
					out := make([]float64, 0, 2*ny)
					for j := 0; j < ny; j++ {
						out = append(out, g.At(-1, j))
					}
					for j := 0; j < ny; j++ {
						out = append(out, g.At(rg.Len(), j))
					}
					return out
				})
				if err != nil {
					t.Fatalf("combine=%v %v p=%d: %v", combine, mode, p, err)
				}
				for r, ghost := range res {
					rg := ranges[r]
					for j := 0; j < ny; j++ {
						if r > 0 {
							want := f(rg.Lo-1, j)
							if ghost[j] != want {
								t.Fatalf("p=%d proc %d lower ghost[%d] = %v want %v", p, r, j, ghost[j], want)
							}
						}
						if r < p-1 {
							want := f(rg.Hi, j)
							if ghost[ny+j] != want {
								t.Fatalf("p=%d proc %d upper ghost[%d] = %v want %v", p, r, j, ghost[ny+j], want)
							}
						}
					}
				}
			}
		}
	}
}

func TestExchangeGhostPlanesX(t *testing.T) {
	f := func(gx, y, z int) float64 { return float64(10000*gx + 100*y + z) }
	const nx, ny, nz = 9, 3, 4
	for _, width := range []int{1, 2} {
		for _, combine := range []bool{true, false} {
			for _, p := range []int{2, 3} {
				slabs := grid.SlabDecompose3(nx, ny, nz, p, grid.AxisX)
				opt := DefaultOptions()
				opt.Combine = combine
				res, err := Run(p, Sim, opt, func(c *Comm) [][2]float64 {
					sl := slabs[c.Rank()]
					g := sl.NewLocal3(width)
					g.FillFunc(func(i, j, k int) float64 { return f(sl.ToGlobal(i), j, k) })
					c.ExchangeGhostPlanesMulti(grid.AxisX, g)
					// Sample one cell of every ghost layer each side.
					out := make([][2]float64, width)
					for d := range out {
						out[d] = [2]float64{g.At(-1-d, 1, 2), g.At(g.NX()+d, 1, 2)}
					}
					return out
				})
				if err != nil {
					t.Fatalf("width=%d combine=%v p=%d: %v", width, combine, p, err)
				}
				for r, layers := range res {
					sl := slabs[r]
					for d, pair := range layers {
						if r > 0 && pair[0] != f(sl.R.Lo-1-d, 1, 2) {
							t.Fatalf("width=%d p=%d proc %d lower ghost %d = %v want %v",
								width, p, r, d, pair[0], f(sl.R.Lo-1-d, 1, 2))
						}
						if r < p-1 && pair[1] != f(sl.R.Hi+d, 1, 2) {
							t.Fatalf("width=%d p=%d proc %d upper ghost %d = %v want %v",
								width, p, r, d, pair[1], f(sl.R.Hi+d, 1, 2))
						}
					}
				}
			}
		}
	}
}

// TestScatterGatherRoundTrip2D gathers the rows of a p x 1 block
// distribution back into the global grid.
func TestScatterGatherRoundTrip2D(t *testing.T) {
	const nx, ny = 10, 5
	global := grid.New2(nx, ny, 0)
	global.FillFunc(func(i, j int) float64 { return float64(i*100 + j) })
	for _, p := range []int{1, 2, 3} {
		topo := NewTopo2D(nx, ny, p, 1)
		res, err := Run(p, Sim, DefaultOptions(), func(c *Comm) *grid.G2 {
			// Each rank takes its own rows of the global grid; Gather2D
			// must reassemble exactly that grid on the root.
			rg := topo.XRanges[c.Rank()]
			local := grid.New2(rg.Len(), ny, 1)
			for k := 0; k < rg.Len(); k++ {
				local.UnpackRow(k, 0, global.Row(rg.Lo+k))
			}
			return c.Gather2D(local, topo, 0)
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if res[0] == nil || !res[0].Equal(global) {
			t.Fatalf("p=%d: 2-D round trip failed", p)
		}
	}
}

func TestCombiningReducesMessages(t *testing.T) {
	// Ghost width 2 and 3 processes: uncombined sends one message per
	// plane; combined sends one per neighbour.  The payload bytes must
	// be identical either way.
	run := func(combine bool) (msgs int, bytes int64) {
		prof := machine.NewProfile(3)
		opt := DefaultOptions()
		opt.Combine = combine
		opt.Profile = prof
		topo := NewTopo2D(12, 4, 3, 1)
		_, err := Run(3, Sim, opt, func(c *Comm) int {
			g := buildLocal2(topo.XRanges[c.Rank()], 4, 2, func(gx, y int) float64 { return 1 })
			c.ExchangeGhost2D(g, topo, false)
			return 0
		})
		if err != nil {
			t.Fatal(err)
		}
		return prof.Totals().Messages, prof.Totals().Bytes
	}
	mc, bc := run(true)
	mu, bu := run(false)
	if mu != 2*mc {
		t.Fatalf("ghost width 2: uncombined %d msgs, combined %d", mu, mc)
	}
	if bc != bu {
		t.Fatalf("payload must match: %d vs %d", bc, bu)
	}
}

func TestGhostExchangeSimEqualsPar(t *testing.T) {
	// A diffusion-like sweep with exchanges every step: Sim and Par
	// results must be bitwise identical.
	const nx, ny, steps, p = 16, 6, 5, 4
	topo := NewTopo2D(nx, ny, p, 1)
	prog := func(c *Comm) []float64 {
		rg := topo.XRanges[c.Rank()]
		g := buildLocal2(rg, ny, 1, func(gx, y int) float64 {
			return float64(gx*gx) * 0.013 * float64(y+1)
		})
		next := g.Clone()
		for s := 0; s < steps; s++ {
			c.ExchangeGhost2D(g, topo, false)
			for i := 0; i < g.NX(); i++ {
				gi := rg.Lo + i
				for j := 0; j < ny; j++ {
					up := g.At(i+1, j)
					down := g.At(i-1, j)
					if gi == 0 {
						down = 0
					}
					if gi == nx-1 {
						up = 0
					}
					next.Set(i, j, 0.25*down+0.5*g.At(i, j)+0.25*up)
				}
			}
			g, next = next, g
		}
		out := make([]float64, 0, g.NX()*ny)
		for i := 0; i < g.NX(); i++ {
			out = append(out, g.Row(i)...)
		}
		return out
	}
	sim, err := Run(p, Sim, DefaultOptions(), prog)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(p, Par, DefaultOptions(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sim, par) {
		t.Fatal("Sim and Par diverged on ghost-exchange sweep")
	}
}
