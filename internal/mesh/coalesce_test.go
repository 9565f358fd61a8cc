package mesh

import (
	"reflect"
	"testing"

	"repro/internal/grid"
	"repro/internal/machine"
)

// mkFields builds the six-grid field set of an FDTD-like application on
// one rank's slab, each grid filled with a distinct pattern.
func mkFields(sl grid.Slab, rank int) []*grid.G3 {
	gs := make([]*grid.G3, 6)
	for gi := range gs {
		g := sl.NewLocal3(1)
		gi := gi
		g.FillFunc(func(i, j, k int) float64 {
			return float64(10000*gi+100*sl.ToGlobal(i)+10*j) + float64(k)
		})
		gs[gi] = g
	}
	return gs
}

// TestMultiExchangeMatchesPerField: the coalesced multi-grid exchange
// must leave every ghost plane bitwise identical to six separate
// per-field exchanges, under both runtimes and with combining on or
// off.
func TestMultiExchangeMatchesPerField(t *testing.T) {
	const nx, ny, nz, p = 12, 4, 3, 4
	slabs := grid.SlabDecompose3(nx, ny, nz, p, grid.AxisX)
	ghosts := func(exchange func(c *Comm, gs []*grid.G3), combine bool, mode Mode) [][]float64 {
		opt := DefaultOptions()
		opt.Combine = combine
		res, err := Run(p, mode, opt, func(c *Comm) []float64 {
			gs := mkFields(slabs[c.Rank()], c.Rank())
			exchange(c, gs)
			var out []float64
			for _, g := range gs {
				out = append(out, g.PackPlane(grid.AxisX, -1, nil)...)
				out = append(out, g.PackPlane(grid.AxisX, g.NX(), nil)...)
			}
			return out
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	perField := func(c *Comm, gs []*grid.G3) {
		for _, g := range gs {
			c.ExchangeGhostPlanesMulti(grid.AxisX, g)
		}
	}
	multi := func(c *Comm, gs []*grid.G3) {
		c.ExchangeGhostPlanesMulti(grid.AxisX, gs...)
	}
	for _, mode := range bothModes {
		for _, combine := range []bool{true, false} {
			want := ghosts(perField, combine, mode)
			got := ghosts(multi, combine, mode)
			for r := range want {
				if len(want[r]) != len(got[r]) {
					t.Fatalf("%v combine=%v rank %d: ghost lengths differ", mode, combine, r)
				}
				for i := range want[r] {
					if want[r][i] != got[r][i] {
						t.Fatalf("%v combine=%v rank %d: ghost %d differs: %v vs %v",
							mode, combine, r, i, got[r][i], want[r][i])
					}
				}
			}
		}
	}
}

// TestMultiExchangeCoalescesMessages verifies the headline reduction:
// refreshing six fields with one coalesced exchange sends one message
// per neighbour per direction instead of six — a 6x (>= the required
// 4x) cut in the per-step message count of a 3-D FDTD-style exchange.
func TestMultiExchangeCoalescesMessages(t *testing.T) {
	const nx, ny, nz, p = 12, 4, 3, 4
	slabs := grid.SlabDecompose3(nx, ny, nz, p, grid.AxisX)
	count := func(exchange func(c *Comm, gs []*grid.G3)) int {
		prof := machine.NewProfile(p)
		opt := DefaultOptions()
		opt.Profile = prof
		_, err := Run(p, Sim, opt, func(c *Comm) int {
			gs := mkFields(slabs[c.Rank()], c.Rank())
			exchange(c, gs)
			return 0
		})
		if err != nil {
			t.Fatal(err)
		}
		return prof.Totals().Messages
	}
	perField := count(func(c *Comm, gs []*grid.G3) {
		for _, g := range gs {
			c.ExchangeGhostPlanesMulti(grid.AxisX, g)
		}
	})
	multi := count(func(c *Comm, gs []*grid.G3) {
		c.ExchangeGhostPlanesMulti(grid.AxisX, gs...)
	})
	if multi == 0 || perField != 6*multi {
		t.Fatalf("six-field exchange should coalesce 6x: per-field=%d multi=%d", perField, multi)
	}
	if perField < 4*multi {
		t.Fatalf("acceptance: need >= 4x message reduction, got %dx", perField/multi)
	}
}

// TestHalvesMatchMultiExchange: on width-1 grids, the stepper's
// exchange — the Start/Finish halves of both directions, with
// computation allowed between each pair — must leave exactly the ghosts
// of one ExchangeGhostPlanesMulti and send exactly as many messages,
// under both runtimes and with combining on or off.
func TestHalvesMatchMultiExchange(t *testing.T) {
	const nx, ny, nz, p = 9, 3, 3, 3
	slabs := grid.SlabDecompose3(nx, ny, nz, p, grid.AxisX)
	run := func(halves bool, mode Mode, combine bool) ([][]float64, int) {
		prof := machine.NewProfile(p)
		opt := DefaultOptions()
		opt.Combine = combine
		opt.Profile = prof
		res, err := Run(p, mode, opt, func(c *Comm) []float64 {
			gs := mkFields(slabs[c.Rank()], c.Rank())[:2]
			if halves {
				up, down := chainNeighbours(c)
				c.StartSendUpTo(grid.AxisX, up, gs...)
				// Interior work would happen here, messages in flight.
				c.FinishSendUpTo(grid.AxisX, down, gs...)
				c.StartSendDownTo(grid.AxisX, down, gs...)
				c.FinishSendDownTo(grid.AxisX, up, gs...)
			} else {
				c.ExchangeGhostPlanesMulti(grid.AxisX, gs...)
			}
			var out []float64
			for _, g := range gs {
				out = append(out, g.PackPlane(grid.AxisX, -1, nil)...)
				out = append(out, g.PackPlane(grid.AxisX, g.NX(), nil)...)
			}
			return out
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, prof.Totals().Messages
	}
	for _, mode := range bothModes {
		for _, combine := range []bool{true, false} {
			wantGhosts, wantMsgs := run(false, mode, combine)
			gotGhosts, gotMsgs := run(true, mode, combine)
			for r := range wantGhosts {
				if !reflect.DeepEqual(wantGhosts[r], gotGhosts[r]) {
					t.Fatalf("%v combine=%v rank %d: halves' ghosts %v, multi %v",
						mode, combine, r, gotGhosts[r], wantGhosts[r])
				}
			}
			if wantMsgs != gotMsgs || gotMsgs == 0 {
				t.Fatalf("%v combine=%v: halves send %d messages, multi %d", mode, combine, gotMsgs, wantMsgs)
			}
		}
	}
}
