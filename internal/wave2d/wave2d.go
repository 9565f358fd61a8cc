// Package wave2d is a second application of the mesh archetype: a
// two-dimensional TMz FDTD solver (field components Ez, Hx, Hy).  It
// runs on the archetype's 2-D block distribution (mesh.Topo2D) with the
// same grid type and communication calls as the 3-D code: its fields
// are grid.G3 sections one cell deep in z, the leapfrog reads one ghost
// side per field, so the directional exchange halves refresh exactly
// that side along x and y, and the host assembles the result with
// Gather3DBlocks.
//
// As with the 3-D code, the sequential program is the one program on a
// 1x1 process grid, so results are bitwise identical across builds and
// runtimes.
package wave2d

import (
	"fmt"
	"math"

	"repro/internal/grid"
	"repro/internal/mesh"
)

// Spec describes a TMz run.
type Spec struct {
	NX, NY int
	Steps  int
	// DT is the time step (c = cell = 1); stability needs DT < 1/sqrt(2).
	DT float64
	// Source: a Ricker pulse added to Ez at (SI, SJ).
	SI, SJ       int
	Delay, Width float64
	// Sigma returns the electric conductivity at a cell (0 = vacuum).
	Sigma func(i, j int) float64
	// Probe samples Ez here every step.
	PI, PJ int
}

// Validate reports the first structural problem.
func (s Spec) Validate() error {
	switch {
	case s.NX < 4 || s.NY < 4:
		return fmt.Errorf("wave2d: grid %dx%d too small", s.NX, s.NY)
	case s.Steps <= 0:
		return fmt.Errorf("wave2d: steps must be positive")
	case s.DT <= 0 || s.DT >= 1/math.Sqrt2:
		return fmt.Errorf("wave2d: DT=%g violates the 2-D Courant bound", s.DT)
	case s.SI < 1 || s.SI >= s.NX || s.SJ < 1 || s.SJ >= s.NY:
		return fmt.Errorf("wave2d: source (%d,%d) outside interior", s.SI, s.SJ)
	case s.PI < 0 || s.PI >= s.NX || s.PJ < 0 || s.PJ >= s.NY:
		return fmt.Errorf("wave2d: probe (%d,%d) outside grid", s.PI, s.PJ)
	case s.Width <= 0:
		return fmt.Errorf("wave2d: source width must be positive")
	}
	return nil
}

func (s Spec) sigma(i, j int) float64 {
	if s.Sigma == nil {
		return 0
	}
	return s.Sigma(i, j)
}

// coeffs returns the Ez update coefficients at a cell.  Here and in
// pulse, updateEz and updateH every product sits in an explicit
// float64 conversion so no build fuses it into an FMA.
func (s Spec) coeffs(i, j int) (ca, cb float64) {
	l := float64(s.sigma(i, j) * s.DT / 2)
	return (1 - l) / (1 + l), s.DT / (1 + l)
}

func (s Spec) pulse(n int) float64 {
	u := (float64(n) - s.Delay) / s.Width
	return (1 - float64(2*u*u)) * math.Exp(-u*u)
}

// Result is the observable outcome.
type Result struct {
	Spec  Spec
	Ez    *grid.G3 // final field (nz = 1), assembled on the root
	Probe []float64
}

// Equal reports bitwise equality of fields and probe series.
func (r *Result) Equal(o *Result) bool {
	if len(r.Probe) != len(o.Probe) {
		return false
	}
	for i := range r.Probe {
		if r.Probe[i] != o.Probe[i] {
			return false
		}
	}
	return r.Ez.Equal(o.Ez)
}

// block holds one process's local sections and its global position.
// Every section is one cell deep in z; the fields carry one ghost
// plane on each side along x and y.
type block struct {
	xr, yr     grid.Range
	nx, ny     int // global extents
	ez, hx, hy *grid.G3
	ca, cb     *grid.G3
}

func newBlock(spec Spec, xr, yr grid.Range) *block {
	b := &block{
		xr: xr, yr: yr, nx: spec.NX, ny: spec.NY,
		ez: grid.New3G(xr.Len(), yr.Len(), 1, 1, 1, 0),
		hx: grid.New3G(xr.Len(), yr.Len(), 1, 1, 1, 0),
		hy: grid.New3G(xr.Len(), yr.Len(), 1, 1, 1, 0),
		ca: grid.New3(xr.Len(), yr.Len(), 1, 0),
		cb: grid.New3(xr.Len(), yr.Len(), 1, 0),
	}
	b.ca.FillFunc(func(i, j, _ int) float64 {
		ca, _ := spec.coeffs(xr.Lo+i, yr.Lo+j)
		return ca
	})
	b.cb.FillFunc(func(i, j, _ int) float64 {
		_, cb := spec.coeffs(xr.Lo+i, yr.Lo+j)
		return cb
	})
	return b
}

// updateEz advances Ez over the block: global i in [1, nx), j in
// [1, ny) (the grid edge is a perfect conductor).
func (b *block) updateEz() {
	i0, j0 := 0, 0
	if b.xr.Lo == 0 {
		i0 = 1
	}
	if b.yr.Lo == 0 {
		j0 = 1
	}
	for i := i0; i < b.xr.Len(); i++ {
		for j := j0; j < b.yr.Len(); j++ {
			b.ez.Set(i, j, 0, float64(b.ca.At(i, j, 0)*b.ez.At(i, j, 0))+
				float64(b.cb.At(i, j, 0)*((b.hy.At(i, j, 0)-b.hy.At(i-1, j, 0))-(b.hx.At(i, j, 0)-b.hx.At(i, j-1, 0)))))
		}
	}
}

// updateH advances Hx (global j < ny-1) and Hy (global i < nx-1).
func (b *block) updateH(dt float64) {
	jEnd := b.yr.Len()
	if b.yr.Hi == b.ny {
		jEnd--
	}
	for i := 0; i < b.xr.Len(); i++ {
		for j := 0; j < jEnd; j++ {
			b.hx.Set(i, j, 0, b.hx.At(i, j, 0)-float64(dt*(b.ez.At(i, j+1, 0)-b.ez.At(i, j, 0))))
		}
	}
	iEnd := b.xr.Len()
	if b.xr.Hi == b.nx {
		iEnd--
	}
	for i := 0; i < iEnd; i++ {
		for j := 0; j < b.yr.Len(); j++ {
			b.hy.Set(i, j, 0, b.hy.At(i, j, 0)+float64(dt*(b.ez.At(i+1, j, 0)-b.ez.At(i, j, 0))))
		}
	}
}

// RunSequential executes the sequential program: the one program of
// RunArchetype on a 1x1 process grid under the simulated runtime, a
// single block covering the whole domain with no neighbours.
func RunSequential(spec Spec) (*Result, error) {
	return RunArchetype(spec, 1, 1, mesh.Sim, mesh.Options{})
}

// RunArchetype executes the program on a px-by-py process grid under
// the given runtime mode and returns the assembled result.
func RunArchetype(spec Spec, px, py int, mode mesh.Mode, opt mesh.Options) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if px <= 0 || py <= 0 || px > spec.NX || py > spec.NY {
		return nil, fmt.Errorf("wave2d: cannot distribute %dx%d over %dx%d processes", spec.NX, spec.NY, px, py)
	}
	topo := mesh.NewTopo2D(spec.NX, spec.NY, px, py)
	srcOwner := topo.Owner(spec.SI, spec.SJ)
	probeOwner := topo.Owner(spec.PI, spec.PJ)
	results, err := mesh.Run(topo.P(), mode, opt, func(c *mesh.Comm) *Result {
		xr, yr := topo.Block(c.Rank())
		rx, ry := topo.Coords(c.Rank())
		xUp, xDown := topo.Rank(rx+1, ry), topo.Rank(rx-1, ry)
		yUp, yDown := topo.Rank(rx, ry+1), topo.Rank(rx, ry-1)
		b := newBlock(spec, xr, yr)
		var probe []float64
		for n := 0; n < spec.Steps; n++ {
			// Ez reads Hy at i-1 and Hx at j-1: fill the low H ghosts,
			// Hy's along x and Hx's along y.
			c.StartSendUpTo(grid.AxisX, xUp, b.hy)
			c.StartSendUpTo(grid.AxisY, yUp, b.hx)
			c.FinishSendUpTo(grid.AxisX, xDown, b.hy)
			c.FinishSendUpTo(grid.AxisY, yDown, b.hx)
			b.updateEz()
			c.Work(float64(xr.Len() * yr.Len()))
			if c.Rank() == srcOwner {
				b.ez.Add(spec.SI-xr.Lo, spec.SJ-yr.Lo, 0, spec.pulse(n))
			}
			// Hy reads Ez at i+1, Hx at j+1: fill the high Ez ghosts.
			c.StartSendDownTo(grid.AxisX, xDown, b.ez)
			c.StartSendDownTo(grid.AxisY, yDown, b.ez)
			c.FinishSendDownTo(grid.AxisX, xUp, b.ez)
			c.FinishSendDownTo(grid.AxisY, yUp, b.ez)
			b.updateH(spec.DT)
			c.Work(float64(2 * xr.Len() * yr.Len()))
			if c.Rank() == probeOwner {
				probe = append(probe, b.ez.At(spec.PI-xr.Lo, spec.PJ-yr.Lo, 0))
			}
		}
		fullProbe := c.BroadcastVec(probe, probeOwner)
		final := c.Gather3DBlocks(b.ez, topo, 0)
		res := &Result{Spec: spec, Probe: fullProbe}
		if c.Rank() == 0 {
			res.Ez = final
		}
		return res
	})
	if err != nil {
		return nil, err
	}
	return results[0], nil
}
