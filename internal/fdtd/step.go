package fdtd

// The one program.  Every build of the application — sequential,
// simulated-parallel, parallel, multi-process worker, recovery segment —
// is program.rank executed on each process of some decomposition over
// some step window; nothing else in the package steps fields.  A stepper
// owns one rank's hoisted exchange groups (so the hot loop passes
// preexisting slices through the variadic exchange calls without
// allocating), its tile pool, its kernel pair, and the probe/work
// accumulators; step(n) advances the local section one leapfrog step.
//
// One schedule.  Each half-step's exchange is split into its send half
// and its receive half, and the cells that read no ghost plane a
// neighbour fills — the interior window — are updated between the two,
// while the messages are in flight.  The remaining boundary strips run
// after the receive.  The windows disjointly cover the local section
// and each cell's update expression is unchanged, so by the determinacy
// argument of Theorem 1 the final state is that of exchange-then-update:
// deferring a receive past computation that does not read the received
// cells permutes independent operations only.
//
// The far field (Version C) is one walk of the rank's point table after
// the H half-step (farField.accumulate).  It writes no field and reads
// no cell a receive fills, so it could run in the next step's flight
// instead; measured on 24x16x16 at P = 2 over a unix socket, that did
// not pay, since at a few ns a point the walk is ~2 us of a ~50 us step.
//
// Ghost dependencies (one-plane stencils):
//
//   E updates read H at li-1 and lj-1  -> interior is li >= 1, lj >= 1
//   H updates read E at li+1 and lj+1  -> interior is li < nxl-1,
//                                          lj < nyl-1
//
// A side with no neighbour has no ghost to wait for, so the interior
// reaches the block's edge there and the strip on that side is empty:
// the sequential program (one block, no neighbours) updates one full
// window per half-step.  Sends still precede receives on every rank,
// so the simulated-parallel execution never reads an empty channel.

import (
	"errors"
	"runtime"

	"repro/internal/grid"
	"repro/internal/mesh"
)

type stepper struct {
	c    *mesh.Comm
	spec Spec
	f    *Fields
	tp   *tilePool
	block

	// The E and H half-step kernels: the pencil pair on every production
	// run; tests substitute the per-cell reference pair.
	updE, updH kernel

	// The update windows of each half-step: the interior first, then
	// the two boundary strips that read received ghosts.
	eWin, hWin [3]window

	// Exchange groups, hoisted so the step loop allocates no slices:
	// eX/eY are the H components whose lower ghosts the E update reads;
	// hX/hY are the E components whose upper ghosts the H update reads.
	eX, eY, hX, hY []*grid.G3

	mur *murState
	ff  *farField

	probeOwner             bool
	probeI, probeJ, probeK int
	probe                  []float64
	work                   float64
}

// resolveWorkers maps Options.Workers to a concrete worker count:
// 0 means one worker per available CPU.
func resolveWorkers(opt mesh.Options) int {
	if opt.Workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return opt.Workers
}

// newStepper prepares the per-rank step state for the block b that f
// covers.  The caller must call close when stepping is done, or the
// tile workers leak.
func newStepper(c *mesh.Comm, spec Spec, f *Fields, b block, variant KernelVariant,
	mur *murState, ff *farField, probeOwner bool) *stepper {
	updE, updH := variant.kernels()
	eWin, hWin := b.windows()
	return &stepper{
		c: c, spec: spec, f: f,
		tp:    newTilePool(resolveWorkers(c.Options())),
		block: b,
		updE:  updE, updH: updH,
		eWin: eWin, hWin: hWin,
		eX:  []*grid.G3{f.Hy, f.Hz},
		eY:  []*grid.G3{f.Hx, f.Hz},
		hX:  []*grid.G3{f.Ey, f.Ez},
		hY:  []*grid.G3{f.Ex, f.Ez},
		mur: mur, ff: ff,
		probeOwner: probeOwner,
		probeI:     spec.Probe[0] - f.XR.Lo,
		probeJ:     spec.Probe[1] - f.YR.Lo,
		probeK:     spec.Probe[2],
	}
}

func (s *stepper) close() { s.tp.close() }

// window is the half-open rectangle [i0, i1) x [j0, j1) of a block's
// local (li, lj) columns; every window spans all of z.
type window struct{ i0, i1, j0, j1 int }

// windows splits the block into the update windows of each half-step,
// interior first.  The E interior starts one column in on each side
// whose lower ghost a neighbour fills; the H interior stops one column
// short on each side whose upper ghost a neighbour fills.  The strips
// are the remainder.
func (b block) windows() (e, h [3]window) {
	nxl, nyl := b.xr.Len(), b.yr.Len()
	ei, ej, hi, hj := 0, 0, nxl, nyl
	if b.xDown >= 0 {
		ei = 1
	}
	if b.xUp >= 0 {
		hi = nxl - 1
	}
	if b.exchangeY && b.yDown >= 0 {
		ej = 1
	}
	if b.exchangeY && b.yUp >= 0 {
		hj = nyl - 1
	}
	e = [3]window{{ei, nxl, ej, nyl}, {0, ei, 0, nyl}, {ei, nxl, 0, ej}}
	h = [3]window{{0, hi, 0, hj}, {hi, nxl, 0, nyl}, {0, hi, hj, nyl}}
	return e, h
}

// tiled runs one kernel over the window, fanned across the tile pool
// along the x-pencil range.
func (s *stepper) tiled(upd kernel, w window) int {
	if w.i1 <= w.i0 || w.j1 <= w.j0 {
		return 0
	}
	f := s.f
	return s.tp.run(w.i0, w.i1, func(a, b int) int {
		return upd(f, a, b, w.j0, w.j1)
	})
}

// step advances the local section from step n to n+1.
func (s *stepper) step(n int) {
	c, f := s.c, s.f

	// E half-step.  The E update reads Hy, Hz one plane below along x
	// (and Hx, Hz one plane below along y in 2-D): refresh the lower
	// ghost planes.
	c.StartSendUpTo(grid.AxisX, s.xUp, s.eX...)
	if s.exchangeY {
		c.StartSendUpTo(grid.AxisY, s.yUp, s.eY...)
	}
	if s.mur != nil {
		s.mur.snapshot(f.Ey, f.Ez, f.Ex)
	}
	// Interior cells read no received ghost: update them while the
	// boundary messages are in flight.
	w := s.tiled(s.updE, s.eWin[0])
	c.FinishSendUpTo(grid.AxisX, s.xDown, s.eX...)
	if s.exchangeY {
		c.FinishSendUpTo(grid.AxisY, s.yDown, s.eY...)
	}
	// Boundary strips read the freshly received ghosts.
	w += s.tiled(s.updE, s.eWin[1]) + s.tiled(s.updE, s.eWin[2])
	c.Work(float64(w))
	s.work += float64(w)

	addSource(f.Ez, s.spec, n, f.XR, f.YR)
	if s.mur != nil {
		mw := s.mur.apply(f.Ey, f.Ez, f.Ex)
		c.Work(float64(mw))
		s.work += float64(mw)
	}

	// H half-step.  The H update reads Ey, Ez one plane above along x
	// (and Ex, Ez one plane above along y in 2-D).
	c.StartSendDownTo(grid.AxisX, s.xDown, s.hX...)
	if s.exchangeY {
		c.StartSendDownTo(grid.AxisY, s.yDown, s.hY...)
	}
	w = s.tiled(s.updH, s.hWin[0])
	c.FinishSendDownTo(grid.AxisX, s.xUp, s.hX...)
	if s.exchangeY {
		c.FinishSendDownTo(grid.AxisY, s.yUp, s.hY...)
	}
	w += s.tiled(s.updH, s.hWin[1]) + s.tiled(s.updH, s.hWin[2])
	c.Work(float64(w))
	s.work += float64(w)

	if s.probeOwner {
		s.probe = append(s.probe, f.Ez.At(s.probeI, s.probeJ, s.probeK))
	}
	if s.ff != nil {
		pts := s.ff.accumulate(n)
		c.Work(float64(pts))
		s.work += float64(pts)
	}
}

// program is one run of the application: a spec, a decomposition of its
// domain, and a step window.  The window starts at start.StepsDone with
// the host scattering start's fields, or — start nil — at step 0 with
// zero fields and nothing to scatter, and ends at until.
type program struct {
	spec   Spec
	dec    decomposition
	opt    Options
	start  *Checkpoint
	until  int
	kernel KernelVariant
}

// plan admits spec on px-by-py blocks and returns the full-run program,
// steps [0, spec.Steps).
func plan(spec Spec, px, py int, opt Options) (*program, error) {
	dec, err := decompose(spec, px, py)
	if err != nil {
		return nil, err
	}
	return &program{spec: spec, dec: dec, opt: opt, until: spec.Steps}, nil
}

// checkResumable refuses to continue a Mur-boundary run mid-stream: the
// Mur state (previous-step boundary planes) is not part of a
// checkpoint, so restarting would perturb one boundary step.  A step-0
// checkpoint carries no history and is fine.
func checkResumable(spec Spec, start *Checkpoint) error {
	if spec.Boundary == BoundaryMur1 && start != nil && start.StepsDone > 0 {
		return errors.New("fdtd: resuming Mur-boundary runs mid-stream is not supported")
	}
	return nil
}

// exec runs the program on in-process ranks under the given runtime and
// returns the host's result: the state at step until.
func (pr *program) exec(mode mesh.Mode) (*Result, error) {
	if err := checkResumable(pr.spec, pr.start); err != nil {
		return nil, err
	}
	results, err := mesh.Run(pr.dec.topo.P(), mode, pr.opt.Mesh, pr.rank)
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// rank is the per-process body of the program: alternating local
// computation (grid operations) and archetype communication (boundary
// exchanges, reductions, broadcast, host I/O redistribution), exactly
// the structure the mesh archetype prescribes.  Every rank returns the
// probe series, far field and work total; the assembled fields are on
// the host only.
func (pr *program) rank(c *mesh.Comm) *Result {
	spec, dec, opt, start := pr.spec, pr.dec, pr.opt, pr.start
	rank := c.Rank()
	host := rank == 0
	b := dec.block(rank)
	f := newFields(spec, b.xr, b.yr, loadCoefficients(c, spec, dec, b, opt.HostIO))
	local := [6]*grid.G3{f.Ex, f.Ey, f.Ez, f.Hx, f.Hy, f.Hz}

	var ff *farField
	if spec.IsVersionC() {
		ff = newFarField(spec, opt.FarFieldCompensated, f)
	}
	from := 0
	if start != nil {
		from = start.StepsDone
		// Host scatters the starting field state; each rank copies its
		// section into the ghosted local grids.  Ghost planes start
		// stale, but every ghost the kernels read is refreshed in-step
		// by a boundary exchange before its first use.
		var global [6]*grid.G3
		if host {
			global = [6]*grid.G3{start.Ex, start.Ey, start.Ez, start.Hx, start.Hy, start.Hz}
			// The far-field sums so far are host state too: the host's
			// accumulators continue them, so a P=1 resume repeats the
			// uninterrupted summation order exactly.
			if ff != nil {
				copy(ff.A, start.FarA)
				copy(ff.F, start.FarF)
			}
		}
		for i, l := range local {
			sec := dec.scatter(c, global[i], spec.NZ)
			for li := 0; li < l.NX(); li++ {
				for lj := 0; lj < l.NY(); lj++ {
					copy(l.Pencil(li, lj), sec.Pencil(li, lj))
				}
			}
		}
	}
	var mur *murState
	if spec.Boundary == BoundaryMur1 {
		mur = newMurState(spec, b.xr, b.yr)
	}
	probeOwner := dec.topo.Owner(spec.Probe[0], spec.Probe[1])
	st := newStepper(c, spec, f, b, pr.kernel, mur, ff, rank == probeOwner)
	defer st.close()

	for n := from; n < pr.until; n++ {
		opt.Inject.Check(rank, n)
		opt.Cancel.Check(rank, n)
		st.step(n)
	}

	res := &Result{Spec: spec}
	// Far field: combine the per-process local double sums — one
	// reduction at the end of the computation, as in §4.3.
	if ff != nil {
		alg := opt.Mesh.ReduceAlg
		if opt.FarFieldCompensated {
			// Rank-ordered combining keeps the result reproducible and
			// the compensated partials keep it accurate.
			alg = mesh.AllToOne
		}
		a, fv := ff.finalize()
		res.FarA = c.AllReduceVecAlg(a, mesh.OpSum, alg)
		res.FarF = c.AllReduceVecAlg(fv, mesh.OpSum, alg)
	}
	// Re-establish copy consistency of the probe series (global data
	// computed in one process only).
	res.Probe = c.BroadcastVec(st.probe, probeOwner)
	// Total work is a sum of integers, so the reduction is exact.
	res.Work = c.AllReduce(st.work, mesh.OpSum)
	if start != nil && host {
		res.Probe = append(append([]float64(nil), start.Probe...), res.Probe...)
		res.Work += start.Work
	}

	// Grid-to-host redistribution of the final fields (file output).
	global := [6]**grid.G3{&res.Ex, &res.Ey, &res.Ez, &res.Hx, &res.Hy, &res.Hz}
	for i, l := range local {
		*global[i] = dec.gather(c, l)
	}
	return res
}
