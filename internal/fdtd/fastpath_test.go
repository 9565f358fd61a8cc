package fdtd

import "testing"

// TestStepWindows checks the stepper's update windows on every rank of
// px x 1 (P = 1, 2, 3) and 2-D (2x2, 4x2) block decompositions: the
// three E windows, and separately the three H windows, cover every
// local column exactly once, no interior window contains a column that
// reads a ghost a neighbour fills, and the sequential program (P = 1)
// runs each half-step as one window.
func TestStepWindows(t *testing.T) {
	spec := SpecSmall()
	for _, l := range [][2]int{{1, 1}, {2, 1}, {3, 1}, {2, 2}, {4, 2}} {
		dec, err := decompose(spec, l[0], l[1])
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < dec.topo.P(); r++ {
			b := dec.block(r)
			nxl, nyl := b.xr.Len(), b.yr.Len()
			e, h := b.windows()
			for half, ws := range map[string][3]window{"E": e, "H": h} {
				seen := make([]int, nxl*nyl)
				nonEmpty := 0
				for _, w := range ws {
					if w.i0 < 0 || w.j0 < 0 || w.i1 > nxl || w.j1 > nyl {
						t.Fatalf("%v rank %d %s: window %+v outside %dx%d", l, r, half, w, nxl, nyl)
					}
					if w.i1 > w.i0 && w.j1 > w.j0 {
						nonEmpty++
					}
					for li := w.i0; li < w.i1; li++ {
						for lj := w.j0; lj < w.j1; lj++ {
							seen[li*nyl+lj]++
						}
					}
				}
				for c, n := range seen {
					if n != 1 {
						t.Fatalf("%v rank %d %s: column (%d,%d) updated %d times", l, r, half, c/nyl, c%nyl, n)
					}
				}
				if dec.topo.P() == 1 && nonEmpty != 1 {
					t.Fatalf("%v %s: sequential half-step runs %d windows, want 1", l, half, nonEmpty)
				}
			}
			// The interiors read no received ghost: E reads li-1, lj-1;
			// H reads li+1, lj+1.
			in := e[0]
			if (b.xDown >= 0 && in.i0 < 1) || (b.exchangeY && b.yDown >= 0 && in.j0 < 1) {
				t.Fatalf("%v rank %d: E interior %+v reads a lower ghost", l, r, in)
			}
			in = h[0]
			if (b.xUp >= 0 && in.i1 > nxl-1) || (b.exchangeY && b.yUp >= 0 && in.j1 > nyl-1) {
				t.Fatalf("%v rank %d: H interior %+v reads an upper ghost", l, r, in)
			}
		}
	}
}
