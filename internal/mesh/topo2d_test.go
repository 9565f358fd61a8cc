package mesh

import (
	"testing"

	"repro/internal/grid"
	"repro/internal/machine"
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

// heat2D runs a 9-point smoothing sweep on a PX-by-PY process grid and
// returns the gathered global field.
func heat2D(t *testing.T, px, py, steps int, corners bool) *grid.G2 {
	t.Helper()
	const nx, ny = 12, 10
	tp := NewTopo2D(nx, ny, px, py)
	res, err := Run(tp.P(), Sim, DefaultOptions(), func(c *Comm) *grid.G2 {
		xr, yr := tp.Block(c.Rank())
		cur := grid.New2(xr.Len(), yr.Len(), 1)
		next := grid.New2(xr.Len(), yr.Len(), 1)
		cur.FillFunc(func(i, j int) float64 {
			return float64((xr.Lo+i)*3+(yr.Lo+j)*7) * 0.125
		})
		for s := 0; s < steps; s++ {
			c.ExchangeGhost2D(cur, tp, corners)
			for i := 0; i < cur.NX(); i++ {
				gi := xr.Lo + i
				for j := 0; j < cur.NY(); j++ {
					gj := yr.Lo + j
					at := func(di, dj int) float64 {
						ni, nj := gi+di, gj+dj
						if ni < 0 || ni >= nx || nj < 0 || nj >= ny {
							return 0
						}
						return cur.At(i+di, j+dj)
					}
					var v float64
					if corners {
						// 9-point stencil: needs the diagonal ghosts.
						v = (at(-1, -1) + at(-1, 0) + at(-1, 1) +
							at(0, -1) + at(0, 0) + at(0, 1) +
							at(1, -1) + at(1, 0) + at(1, 1)) / 9
					} else {
						// 5-point stencil: edges only.
						v = (at(-1, 0) + at(1, 0) + at(0, -1) + at(0, 1) + at(0, 0)) / 5
					}
					next.Set(i, j, v)
				}
			}
			cur, next = next, cur
		}
		return c.Gather2D(cur, tp, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	return res[0]
}

func TestHeat2DAgreesAcrossTopologies(t *testing.T) {
	for _, corners := range []bool{false, true} {
		ref := heat2D(t, 1, 1, 4, corners)
		for _, pq := range [][2]int{{1, 3}, {3, 1}, {2, 2}, {3, 2}, {2, 3}} {
			got := heat2D(t, pq[0], pq[1], 4, corners)
			if got == nil || !got.Equal(ref) {
				t.Fatalf("corners=%v topology %dx%d changed the result (max diff %g)",
					corners, pq[0], pq[1], got.MaxAbsDiff(ref))
			}
		}
	}
}

func TestHeat2DSimEqualsPar(t *testing.T) {
	const nx, ny = 12, 10
	tp := NewTopo2D(nx, ny, 2, 2)
	prog := func(c *Comm) *grid.G2 {
		xr, yr := tp.Block(c.Rank())
		cur := grid.New2(xr.Len(), yr.Len(), 1)
		cur.FillFunc(func(i, j int) float64 { return float64(xr.Lo+i) * float64(yr.Lo+j) })
		for s := 0; s < 3; s++ {
			c.ExchangeGhost2D(cur, tp, true)
			for i := 0; i < cur.NX(); i++ {
				for j := 0; j < cur.NY(); j++ {
					cur.Set(i, j, 0.5*cur.At(i, j)+0.125*(cur.At(i-1, j-1)+cur.At(i+1, j+1)))
				}
			}
		}
		return c.Gather2D(cur, tp, 0)
	}
	sim, err := Run(4, Sim, DefaultOptions(), prog)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(4, Par, DefaultOptions(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if !sim[0].Equal(par[0]) {
		t.Fatal("2-D topology Sim != Par")
	}
}

func TestExchangeGhost2DGhostWidth2(t *testing.T) {
	tp := NewTopo2D(12, 12, 2, 2)
	res, err := Run(4, Sim, DefaultOptions(), func(c *Comm) [4]float64 {
		xr, yr := tp.Block(c.Rank())
		g := grid.New2(xr.Len(), yr.Len(), 2)
		g.FillFunc(func(i, j int) float64 { return float64(100*(xr.Lo+i) + yr.Lo + j) })
		c.ExchangeGhost2D(g, tp, true)
		// Sample the outermost ghost ring (distance 2) in each direction.
		return [4]float64{g.At(-2, 0), g.At(g.NX()+1, 0), g.At(0, -2), g.At(0, g.NY()+1)}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Process 3 (coords 1,1) has up and left neighbours.
	xr, yr := tp.Block(3)
	if res[3][0] != float64(100*(xr.Lo-2)+yr.Lo) {
		t.Fatalf("width-2 up ghost = %v", res[3][0])
	}
	if res[3][2] != float64(100*xr.Lo+yr.Lo-2) {
		t.Fatalf("width-2 left ghost = %v", res[3][2])
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
	tp := NewTopo2D(8, 8, 2, 2)
	requirePanics(t, "run P != topo P", 2, func(c *Comm) { c.ExchangeGhost2D(grid.New2(4, 4, 1), tp, false) })
	requirePanics(t, "no ghosts", 4, func(c *Comm) { c.ExchangeGhost2D(grid.New2(4, 4, 0), tp, false) })
}

// TestGather2DHonoursCombine: a gathered block travels as its rows, one
// message each, and as one message when combining; the payload and the
// assembled grid are the same bit for bit.
func TestGather2DHonoursCombine(t *testing.T) {
	const nx, ny = 7, 5
	global := grid.New2(nx, ny, 0)
	global.FillFunc(func(i, j int) float64 { return float64(i*100+j) + 0.25 })
	for _, pq := range [][2]int{{2, 2}, {3, 1}} {
		topo := NewTopo2D(nx, ny, pq[0], pq[1])
		rows := 0
		for r := 1; r < topo.P(); r++ {
			xr, _ := topo.Block(r)
			rows += xr.Len()
		}
		var bytes [2]int64
		for ci, combine := range []bool{false, true} {
			want := rows
			if combine {
				want = topo.P() - 1
			}
			for _, mode := range bothModes {
				prof := machine.NewProfile(topo.P())
				opt := DefaultOptions()
				opt.Combine, opt.Profile = combine, prof
				res, err := Run(topo.P(), mode, opt, func(c *Comm) *grid.G2 {
					xr, yr := topo.Block(c.Rank())
					local := grid.New2(xr.Len(), yr.Len(), 1)
					local.FillFunc(func(i, j int) float64 { return global.At(xr.Lo+i, yr.Lo+j) })
					return c.Gather2D(local, topo, 0)
				})
				if err != nil {
					t.Fatalf("%v combine=%v %v: %v", pq, combine, mode, err)
				}
				if res[0] == nil || !res[0].Equal(global) {
					t.Fatalf("%v combine=%v %v: gathered grid differs", pq, combine, mode)
				}
				tot := prof.Totals()
				if tot.Messages != want {
					t.Fatalf("%v combine=%v %v: %d messages, want %d", pq, combine, mode, tot.Messages, want)
				}
				bytes[ci] = tot.Bytes
			}
		}
		if bytes[0] != bytes[1] {
			t.Fatalf("%v: %d bytes uncombined, %d combined", pq, bytes[0], bytes[1])
		}
	}
}
