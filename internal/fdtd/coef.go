package fdtd

import (
	"encoding/binary"
	"slices"

	"repro/internal/grid"
	"repro/internal/mesh"
)

// coefRows is one interned row set: the four Yee update-coefficient
// z-rows (each of length NZ) that every pencil column of one class
// shares.
type coefRows struct {
	ca, cb, da, db []float64
}

// coefTable holds one block's update coefficients interned by pencil
// column: each local column (li, lj) carries a small index into a table
// of the distinct row sets.  Materials are axis-aligned boxes, so a
// block holds a handful of distinct columns however large it is, and
// the whole table stays cache-resident while the kernels stream the
// field grids past it.  The table is read-only once built; the tile
// workers of one rank share it.
type coefTable struct {
	ny    int        // local columns along y: column (li, lj) is class[li*ny+lj]
	class []int32    // per local pencil column, an index into sets
	sets  []coefRows // row views into data
	data  []float64  // class-major backing store: ca, cb, da, db of class 0, then class 1, ...
}

func newCoefTable(nx, ny int) *coefTable {
	return &coefTable{ny: ny, class: make([]int32, nx*ny)}
}

// grow appends room for one more class's rows and returns it.
func (t *coefTable) grow(nz int) []float64 {
	base := len(t.data)
	t.data = slices.Grow(t.data, 4*nz)[:base+4*nz]
	return t.data[base:]
}

// seal carves the row views out of data once every class is in.
func (t *coefTable) seal(nz int) *coefTable {
	t.sets = make([]coefRows, len(t.data)/(4*nz))
	for c := range t.sets {
		r := t.data[4*c*nz : 4*(c+1)*nz]
		t.sets[c] = coefRows{
			ca: r[0:nz:nz], cb: r[nz : 2*nz : 2*nz],
			da: r[2*nz : 3*nz : 3*nz], db: r[3*nz : 4*nz : 4*nz],
		}
	}
	return t
}

// internCoefficients builds the coefficient table of the block xr x yr
// from the spec.  Each column is keyed by the set of objects whose
// (I, J) footprint contains it: material(i, j, k) then depends on k and
// that set alone, so columns with equal keys have identical rows.
// Classes are numbered in order of first use (li-major), and each
// class's rows are filled once from Spec.Coefficients at that first
// column.  A spec whose columns all differ gets one class per column —
// a table no larger than per-cell coefficient grids.
func internCoefficients(spec Spec, xr, yr grid.Range) *coefTable {
	nz := spec.NZ
	t := newCoefTable(xr.Len(), yr.Len())
	ids := make(map[string]int32)
	var key []byte
	for li := 0; li < xr.Len(); li++ {
		gi := xr.Lo + li
		for lj := 0; lj < yr.Len(); lj++ {
			gj := yr.Lo + lj
			key = key[:0]
			for o, ob := range spec.Objects {
				if gi >= ob.I0 && gi < ob.I1 && gj >= ob.J0 && gj < ob.J1 {
					key = binary.AppendUvarint(key, uint64(o))
				}
			}
			c, ok := ids[string(key)]
			if !ok {
				c = int32(len(ids))
				ids[string(key)] = c
				r := t.grow(nz)
				for k := 0; k < nz; k++ {
					r[k], r[nz+k], r[2*nz+k], r[3*nz+k] = spec.Coefficients(gi, gj, k)
				}
			}
			t.class[li*t.ny+lj] = c
		}
	}
	return t.seal(nz)
}

// plane returns the class index of every column as an nx x ny x 1 grid,
// the form a decomposition's scatter moves.
func (t *coefTable) plane() *grid.G3 {
	g := grid.New3(len(t.class)/t.ny, t.ny, 1, 0)
	for li := 0; li < g.NX(); li++ {
		for lj := 0; lj < t.ny; lj++ {
			g.Set(li, lj, 0, float64(t.class[li*t.ny+lj]))
		}
	}
	return g
}

// restrictCoefficients builds one block's table from its section of a
// scattered class-index plane and the rows of the table the plane
// indexes.  Classes are renumbered in order of first use, as
// internCoefficients numbers them, and a class's rows are the same
// function of its object set wherever they were filled, so the result
// equals internCoefficients on the block.
func restrictCoefficients(sec *grid.G3, data []float64, nz int) *coefTable {
	t := newCoefTable(sec.NX(), sec.NY())
	ids := make(map[int]int32)
	for li := 0; li < sec.NX(); li++ {
		for lj := 0; lj < sec.NY(); lj++ {
			g := int(sec.At(li, lj, 0))
			c, ok := ids[g]
			if !ok {
				c = int32(len(ids))
				ids[g] = c
				copy(t.grow(nz), data[4*g*nz:4*(g+1)*nz])
			}
			t.class[li*t.ny+lj] = c
		}
	}
	return t.seal(nz)
}

// loadCoefficients gives rank c the coefficient table of its block b.
// With hostIO the host builds the global table (as if read from an
// input file), scatters its class-index plane through the
// decomposition and broadcasts its rows — the archetype's "separate
// host process responsible for file I/O".  Otherwise every rank interns
// its own block from the spec ("perform I/O concurrently in all
// processes").  Both give the same table.
func loadCoefficients(c *mesh.Comm, spec Spec, dec decomposition, b block, hostIO bool) *coefTable {
	if !hostIO {
		return internCoefficients(spec, b.xr, b.yr)
	}
	var plane *grid.G3
	var data []float64
	if c.Rank() == 0 {
		g := internCoefficients(spec, grid.Range{Lo: 0, Hi: spec.NX}, grid.Range{Lo: 0, Hi: spec.NY})
		plane, data = g.plane(), g.data
	}
	sec := dec.scatter(c, plane, 1)
	data = c.BroadcastVec(data, 0)
	return restrictCoefficients(sec, data, spec.NZ)
}
