package fdtd

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/grid"
)

// randomResult holds six nx x ny x nz grids of seeded values: signed,
// of mixed magnitude, with some exact zeros.
func randomResult(nx, ny, nz int, seed int64) *Result {
	rng := rand.New(rand.NewSource(seed))
	r := &Result{}
	for _, gp := range r.fields() {
		g := grid.New3(nx, ny, nz, 1)
		for i := 0; i < nx; i++ {
			for j := 0; j < ny; j++ {
				for k := range g.Pencil(i, j) {
					if rng.Intn(4) > 0 {
						g.Set(i, j, k, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(9)-4)))
					}
				}
			}
		}
		*gp = g
	}
	return r
}

// fields lists the result's six grids in digest order.
func (r *Result) fields() []**grid.G3 {
	return []**grid.G3{&r.Ex, &r.Ey, &r.Ez, &r.Hx, &r.Hy, &r.Hz}
}

// TestFieldHashSeesEveryBit: flipping any one bit of any value of any
// field changes the digest.
func TestFieldHashSeesEveryBit(t *testing.T) {
	r := randomResult(3, 2, 5, 1)
	base := r.FieldHash()
	for f, gp := range r.fields() {
		g := *gp
		for i := 0; i < g.NX(); i++ {
			for j := 0; j < g.NY(); j++ {
				p := g.Pencil(i, j)
				for k, v := range p {
					for b := 0; b < 64; b++ {
						p[k] = math.Float64frombits(math.Float64bits(v) ^ 1<<b)
						h := r.FieldHash()
						p[k] = v
						if h == base {
							t.Fatalf("field %d (%d, %d, %d), bit %d: the flip left the digest at %016x", f, i, j, k, b, base)
						}
					}
				}
			}
		}
	}
}

// TestFieldHashSignFlipsDoNotCancel: two sign flips in one pencil change
// the digest wherever they fall, in one lane (k and k+4) or in two, the
// 9-value pencil's tail included, and so do two in different fields.
// (Negating a zero flips its sign bit too.)
func TestFieldHashSignFlipsDoNotCancel(t *testing.T) {
	r := randomResult(3, 2, 9, 2)
	base := r.FieldHash()
	neg := func(g *grid.G3, i, j, k int) { g.Set(i, j, k, -g.At(i, j, k)) }
	for k1 := 0; k1 < 9; k1++ {
		for k2 := k1 + 1; k2 < 9; k2++ {
			neg(r.Hy, 1, 1, k1)
			neg(r.Hy, 1, 1, k2)
			h := r.FieldHash()
			neg(r.Hy, 1, 1, k1)
			neg(r.Hy, 1, 1, k2)
			if h == base {
				t.Fatalf("sign flips at k = %d and %d cancel", k1, k2)
			}
		}
	}
	neg(r.Ex, 0, 0, 3)
	neg(r.Hz, 2, 1, 3)
	if r.FieldHash() == base {
		t.Fatal("sign flips in two fields cancel")
	}
}

// TestFieldHashIsPositional: the digest is of values at places, not of
// a bag of values: swapping two values of a pencil, swapping two
// pencils, or moving a pencil to the same place in another field all
// change it.
func TestFieldHashIsPositional(t *testing.T) {
	r := randomResult(3, 2, 6, 3)
	base := r.FieldHash()

	p := r.Ez.Pencil(2, 1)
	for a := 0; a < len(p); a++ {
		for b := a + 1; b < len(p); b++ {
			if p[a] == p[b] {
				continue
			}
			p[a], p[b] = p[b], p[a]
			h := r.FieldHash()
			p[a], p[b] = p[b], p[a]
			if h == base {
				t.Fatalf("swapping values %d and %d of a pencil left the digest", a, b)
			}
		}
	}

	swap := func(x, y []float64) {
		for k := range x {
			x[k], y[k] = y[k], x[k]
		}
	}
	swap(r.Hx.Pencil(0, 0), r.Hx.Pencil(2, 1))
	if r.FieldHash() == base {
		t.Fatal("swapping two pencils of a field left the digest")
	}
	swap(r.Hx.Pencil(0, 0), r.Hx.Pencil(2, 1))
	swap(r.Hx.Pencil(1, 0), r.Hx.Pencil(0, 1))
	if r.FieldHash() == base {
		t.Fatal("swapping two pencils of a field left the digest")
	}
	swap(r.Hx.Pencil(1, 0), r.Hx.Pencil(0, 1))

	// Ex's pencil moves into Ey's place and Ey's into Ex's.
	swap(r.Ex.Pencil(1, 1), r.Ey.Pencil(1, 1))
	if r.FieldHash() == base {
		t.Fatal("moving a pencil to another field left the digest")
	}
	swap(r.Ex.Pencil(1, 1), r.Ey.Pencil(1, 1))
	if r.FieldHash() != base {
		t.Fatal("undoing every change did not restore the digest")
	}
}

// TestFieldHashSumsOverBlocks: each px-by-py block of decompose()
// digests its own pencils under their global keys, and the terms of
// every block, added in any order, give the whole-grid digest.
func TestFieldHashSumsOverBlocks(t *testing.T) {
	spec := SpecSmall()
	res := mustSeq(t, spec)
	want := res.FieldHash()
	rng := rand.New(rand.NewSource(4))
	for _, pp := range [][2]int{{1, 1}, {2, 1}, {1, 3}, {2, 2}, {3, 2}, {4, 3}} {
		d, err := decompose(spec, pp[0], pp[1])
		if err != nil {
			t.Fatal(err)
		}
		var terms []uint64
		for rank := 0; rank < pp[0]*pp[1]; rank++ {
			blk := d.block(rank)
			for f, gp := range res.fields() {
				local := grid.New3(blk.xr.Len(), blk.yr.Len(), spec.NZ, 1)
				for li := 0; li < local.NX(); li++ {
					for lj := 0; lj < local.NY(); lj++ {
						copy(local.Pencil(li, lj), (*gp).Pencil(blk.xr.Lo+li, blk.yr.Lo+lj))
						terms = append(terms, pencilDigest(local.Pencil(li, lj), f, blk.xr.Lo+li, blk.yr.Lo+lj))
					}
				}
			}
		}
		for trial := 0; trial < 3; trial++ {
			rng.Shuffle(len(terms), func(a, b int) { terms[a], terms[b] = terms[b], terms[a] })
			var sum uint64
			for _, v := range terms {
				sum += v
			}
			if sum != want {
				t.Fatalf("%dx%d blocks, order %d: block terms sum to %016x, whole grid %016x", pp[0], pp[1], trial, sum, want)
			}
		}
	}
}

var fieldHashSink uint64

// BenchmarkFieldHash digests the final fields of the 24x16x16 job grid
// of the service workloads (36 864 values).
func BenchmarkFieldHash(b *testing.B) {
	res, err := RunSequential(haloGrid(64))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fieldHashSink += res.FieldHash()
	}
}
