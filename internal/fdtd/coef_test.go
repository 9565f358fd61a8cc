package fdtd

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"repro/internal/channel"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/mesh"
	"repro/internal/obs"
)

// tinyBoxes is SpecSmall with one box per (i, j) column, each with its
// own material and z extent, so every column is a class of its own.
func tinyBoxes() Spec {
	spec := SpecSmall()
	spec.Objects = nil
	for i := 0; i < spec.NX; i++ {
		for j := 0; j < spec.NY; j++ {
			n := float64(i*spec.NY + j)
			spec.Objects = append(spec.Objects, Object{
				I0: i, I1: i + 1, J0: j, J1: j + 1,
				K0: (i + j) % 4, K1: spec.NZ - j%3,
				EpsR: 1 + n/64, MuR: 1 + n/128, Sigma: n / 256, SigmaM: n / 512,
			})
		}
	}
	return spec
}

// checkTableMatchesSpec requires t, the table of block xr x yr, to
// reproduce Spec.Coefficients bit for bit at every cell.
func checkTableMatchesSpec(t *testing.T, name string, spec Spec, xr, yr grid.Range, tab *coefTable) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for li := 0; li < xr.Len(); li++ {
		for lj := 0; lj < yr.Len(); lj++ {
			r := &tab.sets[tab.class[li*tab.ny+lj]]
			for k := 0; k < spec.NZ; k++ {
				ca, cb, da, db := spec.Coefficients(xr.Lo+li, yr.Lo+lj, k)
				if !same(r.ca[k], ca) || !same(r.cb[k], cb) || !same(r.da[k], da) || !same(r.db[k], db) {
					t.Fatalf("%s block x%v y%v: cell (%d,%d,%d) table (%v,%v,%v,%v), spec (%v,%v,%v,%v)",
						name, xr, yr, xr.Lo+li, yr.Lo+lj, k, r.ca[k], r.cb[k], r.da[k], r.db[k], ca, cb, da, db)
				}
			}
		}
	}
}

// sameTable reports whether two coefficient tables are identical:
// the same classes in the same order, bit for bit.
func sameTable(a, b *coefTable) bool {
	if a.ny != b.ny || len(a.class) != len(b.class) || len(a.data) != len(b.data) || len(a.sets) != len(b.sets) {
		return false
	}
	for i := range a.class {
		if a.class[i] != b.class[i] {
			return false
		}
	}
	for i := range a.data {
		if math.Float64bits(a.data[i]) != math.Float64bits(b.data[i]) {
			return false
		}
	}
	return true
}

// rankTables runs loadCoefficients on every rank of dec and returns the
// tables, by rank.
func rankTables(t *testing.T, spec Spec, dec decomposition, hostIO bool) []*coefTable {
	t.Helper()
	tabs, err := mesh.Run(dec.topo.P(), mesh.Sim, mesh.DefaultOptions(), func(c *mesh.Comm) *coefTable {
		return loadCoefficients(c, spec, dec, dec.block(c.Rank()), hostIO)
	})
	if err != nil {
		t.Fatal(err)
	}
	return tabs
}

// requireHostIOTablesAgree requires host I/O (scattered class plane,
// broadcast rows) and local interning to give every rank of dec the
// same table.
func requireHostIOTablesAgree(t *testing.T, spec Spec, dec decomposition) {
	t.Helper()
	host, local := rankTables(t, spec, dec, true), rankTables(t, spec, dec, false)
	for r := range host {
		if !sameTable(host[r], local[r]) {
			t.Fatalf("rank %d: host-I/O table (%d classes) differs from the locally interned one (%d classes)",
				r, len(host[r].sets), len(local[r].sets))
		}
	}
}

// TestCoefficientTable holds the interned coefficient table to the
// spec: on every block of several px x 1 and 2-D decompositions of the
// paper's workloads, the benchmark grid and a spec whose columns all
// differ, the table reproduces Spec.Coefficients bit for bit at every
// cell, and the host-I/O path (the global table's class plane
// restricted to the block) builds exactly the locally interned table.
func TestCoefficientTable(t *testing.T) {
	specs := []struct {
		name string
		spec Spec
	}{
		{"Figure2", SpecFigure2()},
		{"Table1", SpecTable1()},
		{"Small", SpecSmall()},
		{"halo grid", haloGrid(1)},
		{"tiny boxes", tinyBoxes()},
	}
	grids := [][2]int{{1, 1}, {2, 1}, {3, 1}, {5, 1}, {2, 2}, {3, 2}, {2, 3}}
	for _, s := range specs {
		spec := s.spec
		full := internCoefficients(spec, grid.Range{Lo: 0, Hi: spec.NX}, grid.Range{Lo: 0, Hi: spec.NY})
		plane := full.plane()
		for _, g := range grids {
			dec, err := decompose(spec, g[0], g[1])
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s %dx%d", s.name, g[0], g[1])
			for r := 0; r < dec.topo.P(); r++ {
				b := dec.block(r)
				tab := internCoefficients(spec, b.xr, b.yr)
				checkTableMatchesSpec(t, name, spec, b.xr, b.yr, tab)
				sec := grid.New3(b.xr.Len(), b.yr.Len(), 1, 0)
				for li := 0; li < b.xr.Len(); li++ {
					for lj := 0; lj < b.yr.Len(); lj++ {
						sec.Set(li, lj, 0, plane.At(b.xr.Lo+li, b.yr.Lo+lj, 0))
					}
				}
				if !sameTable(restrictCoefficients(sec, full.data, spec.NZ), tab) {
					t.Fatalf("%s rank %d: the restricted global table differs from the block's own", name, r)
				}
			}
		}
	}
	if n := len(internCoefficients(SpecFigure2(), grid.Range{Lo: 0, Hi: 66}, grid.Range{Lo: 0, Hi: 66}).sets); n != 3 {
		t.Errorf("SpecFigure2 has %d coefficient classes, want 3", n)
	}
	tiny := tinyBoxes()
	if n := len(internCoefficients(tiny, grid.Range{Lo: 0, Hi: tiny.NX}, grid.Range{Lo: 0, Hi: tiny.NY}).sets); n != tiny.NX*tiny.NY {
		t.Errorf("tiny boxes: %d classes, want one per column (%d)", n, tiny.NX*tiny.NY)
	}
	dec, err := decompose(tiny, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	requireHostIOTablesAgree(t, tiny, dec)
}

// TestHostIOTrafficIsExact pins the message traffic of a host-I/O run
// term by term: SpecSmall on two x-slabs (RunArchetype) and on 2x2
// blocks over the in-process transport sends exactly the x and y ghost
// exchanges, the coefficient class-index plane and class table, the
// far-field and work reductions, the probe broadcast and the final
// gather — every term computed here from the spec and the process grid
// — in exactly the bulk-synchronous phases those operations need, so a
// regression to per-cell coefficient scatters, a px x 1 run that runs
// (empty) y exchange phases or a 2-D run that skips its y halos fails
// here rather than showing up as a benchmark reading.
func TestHostIOTrafficIsExact(t *testing.T) {
	spec := SpecSmall()
	// Distinct object-footprint sets over the (x, y) plane: the classes.
	sets := map[string]bool{}
	for i := 0; i < spec.NX; i++ {
		for j := 0; j < spec.NY; j++ {
			key := ""
			for _, o := range spec.Objects {
				key += fmt.Sprint(i >= o.I0 && i < o.I1 && j >= o.J0 && j < o.J1)
			}
			sets[key] = true
		}
	}
	full := newFields(spec, grid.Range{Lo: 0, Hi: spec.NX}, grid.Range{Lo: 0, Hi: spec.NY}, nil)
	farLen := len(newFarField(spec, false, full).A)
	for _, g := range [][2]int{{2, 1}, {2, 2}} {
		px, py := g[0], g[1]
		p := px * py
		t.Run(fmt.Sprintf("%dx%d", px, py), func(t *testing.T) {
			opt := DefaultOptions()
			opt.Mesh.ChanStats = channel.NewNetStats(p)
			col := obs.New(p)
			opt.Mesh.Obs = col
			opt.Mesh.Profile = machine.NewProfile(p)
			var err error
			if py == 1 {
				_, err = RunArchetype(spec, px, mesh.Par, opt)
			} else {
				_, err = RunArchetype2D(spec, px, py, mesh.Par, opt)
			}
			if err != nil {
				t.Fatal(err)
			}
			col.Finish()

			xr, yr := mesh.NewTopo2D(spec.NX, spec.NY, px, py).Block(0)
			remote := spec.NX*spec.NY - xr.Len()*yr.Len() // columns the host does not own
			rounds := bits.Len(uint(p)) - 1               // recursive-doubling rounds (p a power of two)
			terms := []struct {
				name       string
				msgs, vals int
			}{
				// Each inner face carries one combined two-plane message
				// each way per step.
				{"x halo", 2 * (px - 1) * py * spec.Steps, 2 * spec.Steps * 2 * (px - 1) * spec.NY * spec.NZ},
				{"y halo", 2 * px * (py - 1) * spec.Steps, 2 * spec.Steps * 2 * (py - 1) * spec.NX * spec.NZ},
				{"index plane", p - 1, remote},
				{"class table", p - 1, (p - 1) * len(sets) * 4 * spec.NZ},
				// Two potentials, each all-reduced by one message per
				// rank and round.
				{"far field", 2 * p * rounds, 2 * p * rounds * farLen},
				{"probe", p - 1, (p - 1) * spec.Steps},
				{"work", p * rounds, p * rounds},
				{"gather", 6 * (p - 1), 6 * remote * spec.NZ},
			}
			var msgs, bytes int64
			for _, term := range terms {
				msgs += int64(term.msgs)
				bytes += 8 * int64(term.vals)
			}
			var sends, sent int64
			for _, r := range col.Snapshot().Ranks {
				sends += r.Sends
				sent += r.BytesSent
			}
			if got := opt.Mesh.ChanStats.TotalMessages(); got != msgs || sends != msgs {
				t.Errorf("messages: channel stats %d, obs %d, want %d (%+v)", got, sends, msgs, terms)
			}
			if sent != bytes {
				t.Errorf("bytes sent %d, want %d (%+v)", sent, bytes, terms)
			}
			// Per step a send and a receive phase per half-step and split
			// axis; then the index-plane scatter, the class-table
			// broadcast, two far-field reductions, the probe broadcast,
			// the work reduction and six gathers.
			axes := 1
			if py > 1 {
				axes = 2
			}
			if got, want := opt.Mesh.Profile.Totals().Phases, 4*axes*spec.Steps+12; got != want {
				t.Errorf("phases %d, want %d", got, want)
			}
		})
	}
}
