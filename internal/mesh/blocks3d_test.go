package mesh

import (
	"testing"

	"repro/internal/grid"
	"repro/internal/machine"
)

// TestScatterGather3DBlocksRoundTrip scatters a grid over px x 1
// (x-slab) and 2-D block topologies, combined (one message per block)
// and not (one per x-plane), and gathers it back.  A 2-D grid is the
// nz = 1 case.  The message count follows the combining option and the
// payload bytes do not.
func TestScatterGather3DBlocksRoundTrip(t *testing.T) {
	const nx, ny = 9, 8
	for _, nz := range []int{5, 1} {
		global := grid.New3(nx, ny, nz, 0)
		global.FillFunc(func(i, j, k int) float64 { return float64(i*1000+j*10+k) + 0.25 })
		for _, pq := range [][2]int{{1, 1}, {2, 1}, {4, 1}, {2, 2}, {3, 2}, {1, 4}} {
			topo := NewTopo2D(nx, ny, pq[0], pq[1])
			planes := 0
			for r := 1; r < topo.P(); r++ {
				xr, _ := topo.Block(r)
				planes += xr.Len()
			}
			var bytes [2]int64
			for ci, combine := range []bool{true, false} {
				// Scatter and gather each move every non-root block once.
				want := 2 * (topo.P() - 1)
				if !combine {
					want = 2 * planes
				}
				for _, mode := range bothModes {
					prof := machine.NewProfile(topo.P())
					opt := DefaultOptions()
					opt.Combine, opt.Profile = combine, prof
					res, err := Run(topo.P(), mode, opt, func(c *Comm) *grid.G3 {
						var src *grid.G3
						if c.Rank() == 0 {
							src = global
						}
						local := c.Scatter3DBlocks(src, topo, nz, 0, 1, 1)
						// Spot-check the local contents and ghost allocation.
						xr, yr := topo.Block(c.Rank())
						if local.GhostX() != 1 || local.GhostY() != 1 || local.GhostZ() != 0 {
							panic("scatter ghost widths wrong")
						}
						for i := 0; i < local.NX(); i++ {
							if local.At(i, local.NY()-1, nz-1) != global.At(xr.Lo+i, yr.Hi-1, nz-1) {
								panic("scatter delivered wrong block")
							}
						}
						return c.Gather3DBlocks(local, topo, 0)
					})
					if err != nil {
						t.Fatalf("nz=%d %v combine=%v %v: %v", nz, pq, combine, mode, err)
					}
					if res[0] == nil || !res[0].Equal(global) {
						t.Fatalf("nz=%d %v combine=%v %v: gather(scatter(g)) != g", nz, pq, combine, mode)
					}
					for r := 1; r < topo.P(); r++ {
						if res[r] != nil {
							t.Fatalf("non-root %d returned a grid", r)
						}
					}
					tot := prof.Totals()
					if tot.Messages != want {
						t.Fatalf("nz=%d %v combine=%v %v: %d messages, want %d", nz, pq, combine, mode, tot.Messages, want)
					}
					bytes[ci] = tot.Bytes
				}
			}
			if bytes[0] != bytes[1] {
				t.Fatalf("nz=%d %v: %d bytes combined, %d uncombined", nz, pq, bytes[0], bytes[1])
			}
		}
	}
}

func TestGather3DBlocksToNonZeroRoot(t *testing.T) {
	topo := NewTopo2D(6, 6, 2, 2)
	res, err := Run(4, Sim, DefaultOptions(), func(c *Comm) *grid.G3 {
		xr, yr := topo.Block(c.Rank())
		local := grid.New3G(xr.Len(), yr.Len(), 3, 0, 0, 0)
		local.FillFunc(func(i, j, k int) float64 {
			return float64((xr.Lo+i)*100 + (yr.Lo+j)*10 + k)
		})
		return c.Gather3DBlocks(local, topo, 2)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != nil || res[1] != nil || res[3] != nil || res[2] == nil {
		t.Fatal("only root 2 should hold the gathered grid")
	}
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			for k := 0; k < 3; k++ {
				if res[2].At(i, j, k) != float64(i*100+j*10+k) {
					t.Fatalf("gathered (%d,%d,%d) wrong", i, j, k)
				}
			}
		}
	}
}

func TestBlocks3DPanics(t *testing.T) {
	topo := NewTopo2D(6, 6, 2, 2)
	requirePanics(t, "run P != topo P", 2, func(c *Comm) { c.Gather3DBlocks(grid.New3(3, 3, 3, 0), topo, 0) })
	requirePanics(t, "nil global on root", 4, func(c *Comm) { c.Scatter3DBlocks(nil, topo, 3, c.Rank(), 0, 0) })
}

func TestCommOptionsAccessor(t *testing.T) {
	opt := DefaultOptions()
	opt.Combine = false
	res, err := Run(1, Sim, opt, func(c *Comm) bool {
		return c.Options().Combine
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[0] {
		t.Fatal("Options() should reflect the run options")
	}
}
