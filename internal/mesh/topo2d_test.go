package mesh

import (
	"testing"

	"repro/internal/grid"
)

func TestTopo2DGeometry(t *testing.T) {
	tp := NewTopo2D(10, 9, 2, 3)
	if tp.P() != 6 {
		t.Fatalf("P = %d", tp.P())
	}
	for r := 0; r < 6; r++ {
		rx, ry := tp.Coords(r)
		if tp.Rank(rx, ry) != r {
			t.Fatalf("Coords/Rank not inverse for %d", r)
		}
	}
	if tp.Rank(-1, 0) != -1 || tp.Rank(0, 3) != -1 || tp.Rank(2, 0) != -1 {
		t.Fatal("out-of-grid ranks should be -1")
	}
	// Blocks tile the global grid.
	seen := map[[2]int]bool{}
	for r := 0; r < 6; r++ {
		xr, yr := tp.Block(r)
		for i := xr.Lo; i < xr.Hi; i++ {
			for j := yr.Lo; j < yr.Hi; j++ {
				if seen[[2]int{i, j}] {
					t.Fatalf("point (%d,%d) owned twice", i, j)
				}
				seen[[2]int{i, j}] = true
				if tp.Owner(i, j) != r {
					t.Fatalf("Owner(%d,%d) = %d, want %d", i, j, tp.Owner(i, j), r)
				}
			}
		}
	}
	if len(seen) != 90 {
		t.Fatalf("covered %d points", len(seen))
	}
	if tp.Owner(-1, 0) != -1 || tp.Owner(0, 99) != -1 {
		t.Fatal("out-of-grid owner should be -1")
	}
}

// heat2D runs a 5-point smoothing sweep over a 2-D grid (one cell deep
// in z) on a PX-by-PY process grid and returns the gathered global
// field.  Each step refreshes both ghost sides along x and y with the
// directional halves, the neighbours named by the topology.  The 3-D
// exchange family moves no corner ghosts, so a 5-point stencil is the
// widest it serves.
func heat2D(t *testing.T, mode Mode, px, py, steps int) *grid.G3 {
	t.Helper()
	const nx, ny = 12, 10
	tp := NewTopo2D(nx, ny, px, py)
	res, err := Run(tp.P(), mode, DefaultOptions(), func(c *Comm) *grid.G3 {
		xr, yr := tp.Block(c.Rank())
		rx, ry := tp.Coords(c.Rank())
		axes := []struct {
			axis     grid.Axis
			up, down int
		}{
			{grid.AxisX, tp.Rank(rx+1, ry), tp.Rank(rx-1, ry)},
			{grid.AxisY, tp.Rank(rx, ry+1), tp.Rank(rx, ry-1)},
		}
		cur := grid.New3G(xr.Len(), yr.Len(), 1, 1, 1, 0)
		next := grid.New3G(xr.Len(), yr.Len(), 1, 1, 1, 0)
		cur.FillFunc(func(i, j, _ int) float64 {
			return float64((xr.Lo+i)*3+(yr.Lo+j)*7) * 0.125
		})
		for s := 0; s < steps; s++ {
			for _, a := range axes {
				c.StartSendUpTo(a.axis, a.up, cur)
				c.FinishSendUpTo(a.axis, a.down, cur)
				c.StartSendDownTo(a.axis, a.down, cur)
				c.FinishSendDownTo(a.axis, a.up, cur)
			}
			for i := 0; i < cur.NX(); i++ {
				gi := xr.Lo + i
				for j := 0; j < cur.NY(); j++ {
					gj := yr.Lo + j
					at := func(di, dj int) float64 {
						ni, nj := gi+di, gj+dj
						if ni < 0 || ni >= nx || nj < 0 || nj >= ny {
							return 0
						}
						return cur.At(i+di, j+dj, 0)
					}
					next.Set(i, j, 0, (at(-1, 0)+at(1, 0)+at(0, -1)+at(0, 1)+at(0, 0))/5)
				}
			}
			cur, next = next, cur
		}
		return c.Gather3DBlocks(cur, tp, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	return res[0]
}

func TestHeat2DAgreesAcrossTopologies(t *testing.T) {
	ref := heat2D(t, Sim, 1, 1, 4)
	for _, pq := range [][2]int{{1, 3}, {3, 1}, {2, 2}, {3, 2}, {2, 3}} {
		got := heat2D(t, Sim, pq[0], pq[1], 4)
		if got == nil || !got.Equal(ref) {
			t.Fatalf("topology %dx%d changed the result (max diff %g)",
				pq[0], pq[1], got.MaxAbsDiff(ref))
		}
	}
}

func TestHeat2DSimEqualsPar(t *testing.T) {
	sim := heat2D(t, Sim, 2, 3, 3)
	par := heat2D(t, Par, 2, 3, 3)
	if !sim.Equal(par) {
		t.Fatal("2-D topology Sim != Par")
	}
}

// requirePanics runs f on p ranks and fails unless it panics on every
// rank.
func requirePanics(t *testing.T, name string, p int, f func(c *Comm)) {
	t.Helper()
	res, err := Run(p, Sim, DefaultOptions(), func(c *Comm) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		f(c)
		return false
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for r, panicked := range res {
		if !panicked {
			t.Errorf("%s: rank %d did not panic", name, r)
		}
	}
}

func TestTopo2DPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("more process rows than grid rows", func() { NewTopo2D(3, 8, 4, 1) })
	mustPanic("more process columns than grid columns", func() { NewTopo2D(8, 3, 1, 4) })
	tp := NewTopo2D(8, 8, 2, 2)
	requirePanics(t, "run P != topo P", 2, func(c *Comm) { c.Scatter3DBlocks(grid.New3(8, 8, 1, 0), tp, 1, 0, 1, 1) })
}
