package mesh

import (
	"reflect"
	"testing"

	"repro/internal/grid"
	"repro/internal/machine"
)

// TestExchangeGhostPlanesAllAxes exchanges one and two ghost planes
// along every axis, sampling the outermost ghost plane on each side.
func TestExchangeGhostPlanesAllAxes(t *testing.T) {
	f := func(gi, gj, gk int) float64 { return float64(10000*gi + 100*gj + gk) }
	const n0, n1, n2, p = 9, 8, 7, 3
	for _, w := range []int{1, 2} {
		for _, axis := range []grid.Axis{grid.AxisX, grid.AxisY, grid.AxisZ} {
			slabs := grid.SlabDecompose3(n0, n1, n2, p, axis)
			res, err := Run(p, Sim, DefaultOptions(), func(c *Comm) [2]float64 {
				sl := slabs[c.Rank()]
				g := sl.NewLocal3(w)
				g.FillFunc(func(i, j, k int) float64 {
					gi, gj, gk := i, j, k
					switch axis {
					case grid.AxisX:
						gi = sl.ToGlobal(i)
					case grid.AxisY:
						gj = sl.ToGlobal(j)
					case grid.AxisZ:
						gk = sl.ToGlobal(k)
					}
					return f(gi, gj, gk)
				})
				c.ExchangeGhostPlanesMulti(axis, g)
				var lo, hi float64
				switch axis {
				case grid.AxisX:
					lo, hi = g.At(-w, 1, 1), g.At(g.NX()+w-1, 1, 1)
				case grid.AxisY:
					lo, hi = g.At(1, -w, 1), g.At(1, g.NY()+w-1, 1)
				case grid.AxisZ:
					lo, hi = g.At(1, 1, -w), g.At(1, 1, g.NZ()+w-1)
				}
				return [2]float64{lo, hi}
			})
			if err != nil {
				t.Fatalf("w=%d axis %v: %v", w, axis, err)
			}
			for r := 0; r < p; r++ {
				sl := slabs[r]
				var wantLo, wantHi float64
				switch axis {
				case grid.AxisX:
					wantLo, wantHi = f(sl.R.Lo-w, 1, 1), f(sl.R.Hi+w-1, 1, 1)
				case grid.AxisY:
					wantLo, wantHi = f(1, sl.R.Lo-w, 1), f(1, sl.R.Hi+w-1, 1)
				case grid.AxisZ:
					wantLo, wantHi = f(1, 1, sl.R.Lo-w), f(1, 1, sl.R.Hi+w-1)
				}
				if r > 0 && res[r][0] != wantLo {
					t.Fatalf("w=%d axis %v proc %d: lower ghost %v want %v", w, axis, r, res[r][0], wantLo)
				}
				if r < p-1 && res[r][1] != wantHi {
					t.Fatalf("w=%d axis %v proc %d: upper ghost %v want %v", w, axis, r, res[r][1], wantHi)
				}
			}
		}
	}
}

// jacobi3D runs a few steps of a 7-point Jacobi sweep decomposed along
// the given axis and returns the full field flattened.  Decomposing
// along any axis must give identical results (the decomposition is an
// implementation detail, not a semantic one).
func jacobi3D(t *testing.T, axis grid.Axis, p int) []float64 {
	t.Helper()
	const nx, ny, nz, steps = 10, 9, 8, 4
	slabs := grid.SlabDecompose3(nx, ny, nz, p, axis)
	res, err := Run(p, Sim, DefaultOptions(), func(c *Comm) *grid.G3 {
		sl := slabs[c.Rank()]
		cur := sl.NewLocal3(1)
		next := sl.NewLocal3(1)
		glob := func(i, j, k int) (int, int, int) {
			switch axis {
			case grid.AxisX:
				return sl.ToGlobal(i), j, k
			case grid.AxisY:
				return i, sl.ToGlobal(j), k
			default:
				return i, j, sl.ToGlobal(k)
			}
		}
		cur.FillFunc(func(i, j, k int) float64 {
			gi, gj, gk := glob(i, j, k)
			return float64(gi*gi+2*gj+3*gk) * 0.01
		})
		for s := 0; s < steps; s++ {
			c.ExchangeGhostPlanesMulti(axis, cur)
			for i := 0; i < cur.NX(); i++ {
				for j := 0; j < cur.NY(); j++ {
					for k := 0; k < cur.NZ(); k++ {
						gi, gj, gk := glob(i, j, k)
						get := func(di, dj, dk int) float64 {
							ni, nj, nk := gi+di, gj+dj, gk+dk
							if ni < 0 || ni >= nx || nj < 0 || nj >= ny || nk < 0 || nk >= nz {
								return 0
							}
							return cur.At(i+di, j+dj, k+dk)
						}
						v := (get(-1, 0, 0) + get(1, 0, 0) + get(0, -1, 0) +
							get(0, 1, 0) + get(0, 0, -1) + get(0, 0, 1)) / 6
						next.Set(i, j, k, v)
					}
				}
			}
			cur, next = next, cur
		}
		// Gather along x only works for AxisX; flatten and ship via a
		// reduction-free path: return the local grid and let the test
		// reassemble per-slab.
		return cur
	})
	if err != nil {
		t.Fatal(err)
	}
	// Reassemble globally from the per-process local sections.
	out := make([]float64, nx*ny*nz)
	for r, g := range res {
		sl := slabs[r]
		for i := 0; i < g.NX(); i++ {
			for j := 0; j < g.NY(); j++ {
				for k := 0; k < g.NZ(); k++ {
					gi, gj, gk := i, j, k
					switch axis {
					case grid.AxisX:
						gi = sl.ToGlobal(i)
					case grid.AxisY:
						gj = sl.ToGlobal(j)
					case grid.AxisZ:
						gk = sl.ToGlobal(k)
					}
					out[(gi*ny+gj)*nz+gk] = g.At(i, j, k)
				}
			}
		}
	}
	return out
}

func TestJacobiAgreesAcrossDecompositionAxes(t *testing.T) {
	ref := jacobi3D(t, grid.AxisX, 1)
	for _, axis := range []grid.Axis{grid.AxisX, grid.AxisY, grid.AxisZ} {
		for _, p := range []int{2, 4} {
			got := jacobi3D(t, axis, p)
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("axis %v p=%d: decomposition changed the result", axis, p)
			}
		}
	}
}

func TestDirectionalAllAxes(t *testing.T) {
	const p = 3
	for _, axis := range []grid.Axis{grid.AxisX, grid.AxisY, grid.AxisZ} {
		slabs := grid.SlabDecompose3(6, 9, 12, p, axis)
		res, err := Run(p, Sim, DefaultOptions(), func(c *Comm) [2]float64 {
			sl := slabs[c.Rank()]
			g := sl.NewLocal3(1)
			g.FillFunc(func(i, j, k int) float64 {
				switch axis {
				case grid.AxisX:
					return float64(sl.ToGlobal(i))
				case grid.AxisY:
					return float64(sl.ToGlobal(j))
				default:
					return float64(sl.ToGlobal(k))
				}
			})
			sendUp(c, axis, g)
			sendDown(c, axis, g)
			switch axis {
			case grid.AxisX:
				return [2]float64{g.At(-1, 0, 0), g.At(g.NX(), 0, 0)}
			case grid.AxisY:
				return [2]float64{g.At(0, -1, 0), g.At(0, g.NY(), 0)}
			default:
				return [2]float64{g.At(0, 0, -1), g.At(0, 0, g.NZ())}
			}
		})
		if err != nil {
			t.Fatalf("axis %v: %v", axis, err)
		}
		for r := 0; r < p; r++ {
			sl := slabs[r]
			if r > 0 && res[r][0] != float64(sl.R.Lo-1) {
				t.Fatalf("axis %v proc %d: upward ghost %v", axis, r, res[r][0])
			}
			if r < p-1 && res[r][1] != float64(sl.R.Hi) {
				t.Fatalf("axis %v proc %d: downward ghost %v", axis, r, res[r][1])
			}
		}
	}
}

func TestAxisExchangePanics(t *testing.T) {
	_, err := Run(2, Sim, DefaultOptions(), func(c *Comm) bool {
		defer func() { recover() }()
		g := grid.New3(4, 4, 4, 0)
		c.ExchangeGhostPlanesMulti(grid.AxisY, g)
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(2, Sim, DefaultOptions(), func(c *Comm) bool {
		defer func() { recover() }()
		a := grid.New3G(4, 4, 4, 0, 1, 0)
		b := grid.New3G(4, 5, 4, 0, 1, 0)
		sendUp(c, grid.AxisY, a, b)
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
}

// chainNeighbours returns this rank's neighbours on the 1-D chain of
// ranks, -1 where the chain ends.
func chainNeighbours(c *Comm) (up, down int) {
	up, down = c.Rank()+1, c.Rank()-1
	if up == c.P() {
		up = -1
	}
	return up, down
}

// sendUp and sendDown run both halves of one direction back to back on
// the 1-D chain of ranks: a step with no interior work between them.
func sendUp(c *Comm, axis grid.Axis, gs ...*grid.G3) {
	up, down := chainNeighbours(c)
	c.StartSendUpTo(axis, up, gs...)
	c.FinishSendUpTo(axis, down, gs...)
}

func sendDown(c *Comm, axis grid.Axis, gs ...*grid.G3) {
	up, down := chainNeighbours(c)
	c.StartSendDownTo(axis, down, gs...)
	c.FinishSendDownTo(axis, up, gs...)
}

func TestSendUpXFillsLowerGhost(t *testing.T) {
	const nx, ny, nz, p = 8, 3, 2, 4
	slabs := grid.SlabDecompose3(nx, ny, nz, p, grid.AxisX)
	for _, combine := range []bool{true, false} {
		for _, mode := range bothModes {
			opt := DefaultOptions()
			opt.Combine = combine
			res, err := Run(p, mode, opt, func(c *Comm) [2]float64 {
				sl := slabs[c.Rank()]
				a := sl.NewLocal3(1)
				b := sl.NewLocal3(1)
				a.FillFunc(func(i, j, k int) float64 { return float64(sl.ToGlobal(i)) })
				b.FillFunc(func(i, j, k int) float64 { return float64(100 + sl.ToGlobal(i)) })
				sendUp(c, grid.AxisX, a, b)
				return [2]float64{a.At(-1, 1, 1), b.At(-1, 1, 1)}
			})
			if err != nil {
				t.Fatalf("combine=%v %v: %v", combine, mode, err)
			}
			for r := 1; r < p; r++ {
				lo := slabs[r].R.Lo
				if res[r][0] != float64(lo-1) || res[r][1] != float64(100+lo-1) {
					t.Fatalf("combine=%v %v proc %d: ghosts = %v", combine, mode, r, res[r])
				}
			}
		}
	}
}

func TestSendDownXFillsUpperGhost(t *testing.T) {
	const nx, ny, nz, p = 9, 2, 2, 3
	slabs := grid.SlabDecompose3(nx, ny, nz, p, grid.AxisX)
	res, err := Run(p, Sim, DefaultOptions(), func(c *Comm) float64 {
		sl := slabs[c.Rank()]
		g := sl.NewLocal3(1)
		g.FillFunc(func(i, j, k int) float64 { return float64(sl.ToGlobal(i)) })
		sendDown(c, grid.AxisX, g)
		return g.At(g.NX(), 0, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < p-1; r++ {
		if res[r] != float64(slabs[r].R.Hi) {
			t.Fatalf("proc %d upper ghost = %v want %v", r, res[r], float64(slabs[r].R.Hi))
		}
	}
}

func TestDirectionalHalvesMessagesVsFullExchange(t *testing.T) {
	const nx, ny, nz, p = 8, 2, 2, 4
	slabs := grid.SlabDecompose3(nx, ny, nz, p, grid.AxisX)
	count := func(f func(c *Comm, g *grid.G3)) int {
		prof := machine.NewProfile(p)
		opt := DefaultOptions()
		opt.Profile = prof
		_, err := Run(p, Sim, opt, func(c *Comm) int {
			g := slabs[c.Rank()].NewLocal3(1)
			f(c, g)
			return 0
		})
		if err != nil {
			t.Fatal(err)
		}
		return prof.Totals().Messages
	}
	full := count(func(c *Comm, g *grid.G3) { c.ExchangeGhostPlanesMulti(grid.AxisX, g) })
	up := count(func(c *Comm, g *grid.G3) { sendUp(c, grid.AxisX, g) })
	if up*2 != full {
		t.Fatalf("directional should halve messages: up=%d full=%d", up, full)
	}
}

func TestDirectionalCombiningMergesGrids(t *testing.T) {
	const p = 3
	slabs := grid.SlabDecompose3(9, 2, 2, p, grid.AxisX)
	count := func(combine bool) int {
		prof := machine.NewProfile(p)
		opt := DefaultOptions()
		opt.Combine = combine
		opt.Profile = prof
		_, err := Run(p, Sim, opt, func(c *Comm) int {
			a := slabs[c.Rank()].NewLocal3(1)
			b := slabs[c.Rank()].NewLocal3(1)
			sendUp(c, grid.AxisX, a, b)
			return 0
		})
		if err != nil {
			t.Fatal(err)
		}
		return prof.Totals().Messages
	}
	combined, uncombined := count(true), count(false)
	if uncombined != 2*combined {
		t.Fatalf("two grids should combine into one message: %d vs %d", combined, uncombined)
	}
}

func TestDirectionalEmptyAndErrors(t *testing.T) {
	prof := machine.NewProfile(2)
	opt := DefaultOptions()
	opt.Profile = prof
	_, err := Run(2, Sim, opt, func(c *Comm) int {
		sendUp(c, grid.AxisX) // no grids: still two phases, no messages
		sendDown(c, grid.AxisX)
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := prof.Totals().Messages; n != 0 {
		t.Fatalf("empty halves sent %d messages", n)
	}
	// Ghostless grid panics.
	_, err = Run(2, Sim, DefaultOptions(), func(c *Comm) bool {
		defer func() { recover() }()
		g := grid.New3(4, 2, 2, 0)
		sendUp(c, grid.AxisX, g)
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	// Mismatched y-z extents panic.
	_, err = Run(2, Sim, DefaultOptions(), func(c *Comm) bool {
		defer func() { recover() }()
		a := grid.New3G(4, 2, 2, 1, 0, 0)
		b := grid.New3G(4, 3, 2, 1, 0, 0)
		sendUp(c, grid.AxisX, a, b)
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDirectionalSingleProcessNoop(t *testing.T) {
	slabs := grid.SlabDecompose3(4, 2, 2, 1, grid.AxisX)
	res, err := Run(1, Sim, DefaultOptions(), func(c *Comm) [3]float64 {
		g := slabs[0].NewLocal3(1)
		g.Fill(3)
		sendUp(c, grid.AxisX, g)
		sendDown(c, grid.AxisX, g)
		c.ExchangeGhostPlanesMulti(grid.AxisX, g)
		return [3]float64{g.At(-1, 0, 0), g.At(0, 0, 0), g.At(g.NX(), 0, 0)}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != [3]float64{0, 3, 0} {
		t.Fatalf("single-process exchange should be a no-op: ghost, interior, ghost = %v", res[0])
	}
}

// TestExchangeGhostPlanesX exchanges one and two ghost planes of an
// x-slab (p x 1) distribution, combined and not, under both runtimes.
func TestExchangeGhostPlanesX(t *testing.T) {
	f := func(gx, y, z int) float64 { return float64(10000*gx + 100*y + z) }
	const nx, ny, nz = 10, 3, 4
	for _, width := range []int{1, 2} {
		for _, combine := range []bool{true, false} {
			for _, mode := range bothModes {
				for _, p := range []int{2, 3, 5} {
					slabs := grid.SlabDecompose3(nx, ny, nz, p, grid.AxisX)
					opt := DefaultOptions()
					opt.Combine = combine
					res, err := Run(p, mode, opt, func(c *Comm) [][2]float64 {
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
						t.Fatalf("width=%d combine=%v %v p=%d: %v", width, combine, mode, p, err)
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
			xr, _ := topo.Block(c.Rank())
			g := grid.New3G(xr.Len(), 4, 1, 2, 0, 0)
			g.Fill(1)
			c.ExchangeGhostPlanesMulti(grid.AxisX, g)
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
	// A diffusion-like sweep over a 2-D grid (one cell deep in z) split
	// into x-slabs, with exchanges every step: Sim and Par results must
	// be bitwise identical.
	const nx, ny, steps, p = 16, 6, 5, 4
	topo := NewTopo2D(nx, ny, p, 1)
	prog := func(c *Comm) []float64 {
		rg, _ := topo.Block(c.Rank())
		g := grid.New3G(rg.Len(), ny, 1, 1, 0, 0)
		g.FillFunc(func(i, j, _ int) float64 {
			gx := rg.Lo + i
			return float64(gx*gx) * 0.013 * float64(j+1)
		})
		next := g.Clone()
		for s := 0; s < steps; s++ {
			c.ExchangeGhostPlanesMulti(grid.AxisX, g)
			for i := 0; i < g.NX(); i++ {
				gi := rg.Lo + i
				for j := 0; j < ny; j++ {
					up := g.At(i+1, j, 0)
					down := g.At(i-1, j, 0)
					if gi == 0 {
						down = 0
					}
					if gi == nx-1 {
						up = 0
					}
					next.Set(i, j, 0, 0.25*down+0.5*g.At(i, j, 0)+0.25*up)
				}
			}
			g, next = next, g
		}
		out := make([]float64, 0, g.NX()*ny)
		for i := 0; i < g.NX(); i++ {
			for j := 0; j < ny; j++ {
				out = append(out, g.At(i, j, 0))
			}
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
