package grid

import "fmt"

// G3 is a three-dimensional grid of float64 values with uniform ghost
// boundaries.  Storage is row-major: z varies fastest, then y, then x.
type G3 struct {
	xe, ye, ze Extent
	strideX    int
	strideY    int
	data       []float64
}

// New3 allocates an nx-by-ny-by-nz grid with the given ghost width on
// every side, initialised to zero.
func New3(nx, ny, nz, ghost int) *G3 {
	return New3G(nx, ny, nz, ghost, ghost, ghost)
}

// New3G allocates a 3-D grid with per-axis ghost widths.  Slab
// decompositions only need ghosts along the split axis, so distinct
// widths avoid wasting memory on unused shadow planes.
func New3G(nx, ny, nz, gx, gy, gz int) *G3 {
	xe := Extent{N: nx, Ghost: gx}
	ye := Extent{N: ny, Ghost: gy}
	ze := Extent{N: nz, Ghost: gz}
	checkExtent(xe, "x")
	checkExtent(ye, "y")
	checkExtent(ze, "z")
	return &G3{
		xe: xe, ye: ye, ze: ze,
		strideX: ye.total() * ze.total(),
		strideY: ze.total(),
		data:    make([]float64, xe.total()*ye.total()*ze.total()),
	}
}

// NX returns the interior extent along x.
func (g *G3) NX() int { return g.xe.N }

// NY returns the interior extent along y.
func (g *G3) NY() int { return g.ye.N }

// NZ returns the interior extent along z.
func (g *G3) NZ() int { return g.ze.N }

// GhostX returns the ghost width along x.
func (g *G3) GhostX() int { return g.xe.Ghost }

// GhostY returns the ghost width along y.
func (g *G3) GhostY() int { return g.ye.Ghost }

// GhostZ returns the ghost width along z.
func (g *G3) GhostZ() int { return g.ze.Ghost }

// Index maps logical coordinates to a backing-slice offset.  Exposed so
// performance-critical kernels can hoist base offsets out of loops.
func (g *G3) Index(i, j, k int) int {
	return (i+g.xe.Ghost)*g.strideX + (j+g.ye.Ghost)*g.strideY + (k + g.ze.Ghost)
}

// StrideX returns the backing-slice distance between consecutive x.
func (g *G3) StrideX() int { return g.strideX }

// StrideY returns the backing-slice distance between consecutive y.
func (g *G3) StrideY() int { return g.strideY }

// At returns the value at logical coordinates (i, j, k).
func (g *G3) At(i, j, k int) float64 { return g.data[g.Index(i, j, k)] }

// Set stores v at logical coordinates (i, j, k).
func (g *G3) Set(i, j, k int, v float64) { g.data[g.Index(i, j, k)] = v }

// Add adds v to the value at (i, j, k).
func (g *G3) Add(i, j, k int, v float64) { g.data[g.Index(i, j, k)] += v }

// Data exposes the backing slice in storage order, ghosts included.
func (g *G3) Data() []float64 { return g.data }

// Pencil returns the interior z-run at (i, j), aliasing the backing
// store; the innermost loops of FDTD kernels walk pencils at stride 1.
func (g *G3) Pencil(i, j int) []float64 {
	base := g.Index(i, j, 0)
	return g.data[base : base+g.ze.N]
}

// Row is the kernel view of the interior z-row at (i, j): the same
// aliased storage as Pencil, but with the capacity clamped to the row
// length, so a stray append or re-slice past NZ panics instead of
// silently walking into the neighbouring row's storage.  (i, j) may
// address ghost rows (negative, or >= the interior extent, within the
// ghost width) — the offset-neighbour views stencil kernels take at
// lj-1 or li+1.
//
// Hot loops pair Row with the bounds-check-hoisting re-slice idiom:
//
//	a := ga.Row(i, j)
//	b := gb.Row(i, j)[:len(a)]
//	for k := range a { a[k] += c * b[k] }
//
// After b = b[:len(a)] the compiler proves every b[k] in range from
// the loop condition alone and drops the per-element bounds checks,
// keeping the inner loop branch-free.
func (g *G3) Row(i, j int) []float64 {
	base := g.Index(i, j, 0)
	return g.data[base : base+g.ze.N : base+g.ze.N]
}

// Fill sets every interior point to v.
func (g *G3) Fill(v float64) {
	for i := 0; i < g.xe.N; i++ {
		for j := 0; j < g.ye.N; j++ {
			p := g.Pencil(i, j)
			for k := range p {
				p[k] = v
			}
		}
	}
}

// FillFunc sets every interior point (i, j, k) to f(i, j, k).
func (g *G3) FillFunc(f func(i, j, k int) float64) {
	for i := 0; i < g.xe.N; i++ {
		for j := 0; j < g.ye.N; j++ {
			p := g.Pencil(i, j)
			for k := range p {
				p[k] = f(i, j, k)
			}
		}
	}
}

// Clone returns a deep copy of the grid, ghosts included.
func (g *G3) Clone() *G3 {
	c := *g
	c.data = make([]float64, len(g.data))
	copy(c.data, g.data)
	return &c
}

// Equal reports whether two grids have identical interior shape and
// bitwise identical interior values (ghosts ignored).
func (g *G3) Equal(h *G3) bool {
	if g.xe.N != h.xe.N || g.ye.N != h.ye.N || g.ze.N != h.ze.N {
		return false
	}
	for i := 0; i < g.xe.N; i++ {
		for j := 0; j < g.ye.N; j++ {
			a, b := g.Pencil(i, j), h.Pencil(i, j)
			for k := range a {
				if a[k] != b[k] {
					return false
				}
			}
		}
	}
	return true
}

// MaxAbsDiff returns the largest absolute interior difference between
// two same-shaped grids.
func (g *G3) MaxAbsDiff(h *G3) float64 {
	if g.xe.N != h.xe.N || g.ye.N != h.ye.N || g.ze.N != h.ze.N {
		panic("grid: MaxAbsDiff shape mismatch")
	}
	max := 0.0
	for i := 0; i < g.xe.N; i++ {
		for j := 0; j < g.ye.N; j++ {
			a, b := g.Pencil(i, j), h.Pencil(i, j)
			for k := range a {
				d := a[k] - b[k]
				if d < 0 {
					d = -d
				}
				if d > max {
					max = d
				}
			}
		}
	}
	return max
}

// packPlaneX serialises the interior y-z plane at x=i into buf (which
// must have length NY*NZ) and returns it; allocates when buf is nil.
func (g *G3) packPlaneX(i int, buf []float64) []float64 {
	n := g.ye.N * g.ze.N
	if buf == nil {
		buf = make([]float64, n)
	}
	if len(buf) != n {
		panic("grid: packPlaneX bad buffer length")
	}
	off := 0
	for j := 0; j < g.ye.N; j++ {
		copy(buf[off:off+g.ze.N], g.Pencil(i, j))
		off += g.ze.N
	}
	return buf
}

// unpackPlaneX deserialises buf (length NY*NZ) into the y-z plane at
// x=i, which may be a ghost plane.
func (g *G3) unpackPlaneX(i int, buf []float64) {
	n := g.ye.N * g.ze.N
	if len(buf) != n {
		panic("grid: unpackPlaneX bad buffer length")
	}
	off := 0
	for j := 0; j < g.ye.N; j++ {
		base := g.Index(i, j, 0)
		copy(g.data[base:base+g.ze.N], buf[off:off+g.ze.N])
		off += g.ze.N
	}
}

func (g *G3) String() string {
	return fmt.Sprintf("G3(%dx%dx%d ghost=%d,%d,%d)",
		g.xe.N, g.ye.N, g.ze.N, g.xe.Ghost, g.ye.Ghost, g.ze.Ghost)
}
