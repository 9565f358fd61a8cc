package fdtd

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/channel"
	"repro/internal/grid"
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
	tabs, err := mesh.Run(dec.procs(), mesh.Sim, mesh.DefaultOptions(), func(c *mesh.Comm) *coefTable {
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
// spec: on every block of several slab and 2-D decompositions of the
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
	grids := [][3]int{{1, 1, 1}, {2, 1, 1}, {3, 1, 1}, {5, 1, 1}, {2, 2, 0}, {3, 2, 0}, {2, 3, 0}}
	for _, s := range specs {
		spec := s.spec
		full := internCoefficients(spec, grid.Range{Lo: 0, Hi: spec.NX}, grid.Range{Lo: 0, Hi: spec.NY})
		plane := full.plane()
		for _, g := range grids {
			dec, err := decompose(spec, g[0], g[1], g[2] == 1)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s %dx%d", s.name, g[0], g[1])
			for r := 0; r < dec.procs(); r++ {
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
	dec, err := decompose(tiny, 2, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	requireHostIOTablesAgree(t, tiny, dec)
}

// TestHostIOTrafficIsExact pins the message traffic of a host-I/O run
// term by term: SpecSmall on two slabs over the in-process transport
// sends exactly the ghost exchanges, the coefficient class-index plane
// and class table, the far-field and work reductions, the probe
// broadcast and the final gather — every term computed here from the
// spec — so a regression to per-cell coefficient scatters fails here
// rather than showing up as a benchmark reading.
func TestHostIOTrafficIsExact(t *testing.T) {
	spec := SpecSmall()
	const p = 2
	opt := DefaultOptions()
	opt.Mesh.ChanStats = channel.NewNetStats(p)
	col := obs.New(p)
	opt.Mesh.Obs = col
	if _, err := RunArchetype(spec, p, mesh.Par, opt); err != nil {
		t.Fatal(err)
	}
	col.Finish()

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
	upper := grid.SlabDecompose3(spec.NX, spec.NY, spec.NZ, p, grid.AxisX)[1].R.Len()
	farLen := len(newFarField(spec, false).A)
	terms := []struct {
		name       string
		msgs, vals int
	}{
		// One combined two-plane message each way per step.
		{"halo", 2 * spec.Steps, 2 * spec.Steps * 2 * spec.NY * spec.NZ},
		{"index plane", 1, upper * spec.NY},
		{"class table", 1, len(sets) * 4 * spec.NZ},
		// Two potentials, each all-reduced by one message per rank.
		{"far field", 2 * p, 2 * p * farLen},
		{"probe", 1, spec.Steps},
		{"work", p, p},
		{"gather", 6, 6 * upper * spec.NY * spec.NZ},
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
}
