package fdtd

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/channel"
	"repro/internal/machine"
	"repro/internal/mesh"
)

// runWorkers executes spec as p RunArchetypeWorker ranks joined by a
// unix-socket mesh — the body of p -procs worker processes — and
// returns rank 0's assembled result.
func runWorkers(spec Spec, p int, dir string) (*Result, error) {
	addrs := make([]string, p)
	for i := range addrs {
		addrs[i] = filepath.Join(dir, fmt.Sprintf("rank-%d.sock", i))
	}
	results := make([]*Result, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, err := channel.DialMesh("unix", addrs, r, mesh.WireCodec(), channel.SocketOptions{})
			if err != nil {
				errs[r] = err
				return
			}
			defer tr.Close()
			results[r], errs[r] = RunArchetypeWorker(spec, r, tr, DefaultOptions())
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results[0], nil
}

// TestOneProgramIdentity is the refinement claim as one table: every
// entry point is the one program (program.rank) on some decomposition
// over some sequence of step windows, so every row must reproduce the
// sequential program's near field, probe series and work tally bitwise
// — and its far field too wherever the summation order is the
// sequential one (a single rank, however the steps are windowed).  It
// runs once per row body.
func TestOneProgramIdentity(t *testing.T) {
	forEachRowBody(t, testOneProgramIdentity)
}

func testOneProgramIdentity(t *testing.T) {
	type row struct {
		name string
		far  bool // far field bitwise equal to sequential, not just near
		run  func(spec Spec) (*Result, error)
	}
	arch := func(p int, mode mesh.Mode) func(Spec) (*Result, error) {
		return func(spec Spec) (*Result, error) { return RunArchetype(spec, p, mode, DefaultOptions()) }
	}
	oneWindow := []row{
		{"P=1", true, arch(1, mesh.Sim)},
		{"slabs P=2", false, arch(2, mesh.Par)},
		{"slabs P=4", false, arch(4, mesh.Par)},
		{"blocks 2x2", false, func(spec Spec) (*Result, error) {
			return RunArchetype2D(spec, 2, 2, mesh.Par, DefaultOptions())
		}},
		{"workers P=2 over a socket mesh", false, func(spec Spec) (*Result, error) {
			return runWorkers(spec, 2, t.TempDir())
		}},
		// The end-to-end At/Set oracle: the whole sequential run on the
		// per-cell reference kernels.
		{"sequential on the reference kernels", true, func(spec Spec) (*Result, error) {
			pr, err := plan(spec, 1, sequentialOptions(false))
			if err != nil {
				return nil, err
			}
			pr.kernel = KernelReference
			return pr.exec(mesh.Sim)
		}},
	}
	// Every split [0,k)+[k,N) of the run into two windows.
	split := func(k int) []row {
		resume := func(cont func(*Checkpoint) (*Result, error)) func(Spec) (*Result, error) {
			return func(spec Spec) (*Result, error) {
				ck, err := RunSequentialUntil(spec, k)
				if err != nil {
					return nil, err
				}
				return cont(ck)
			}
		}
		archAt := func(p int) func(*Checkpoint) (*Result, error) {
			return func(ck *Checkpoint) (*Result, error) { return ResumeArchetype(ck, p, DefaultOptions()) }
		}
		return []row{
			{fmt.Sprintf("split %d, ResumeSequential", k), true, resume(ResumeSequential)},
			{fmt.Sprintf("split %d, ResumeArchetype P=1", k), true, resume(archAt(1))},
			{fmt.Sprintf("split %d, ResumeArchetype P=3", k), false, resume(archAt(3))},
		}
	}

	mur := SpecSmall()
	mur.Boundary = BoundaryMur1
	for _, spec := range []Spec{SpecSmall(), mur} {
		rows := oneWindow
		if spec.Boundary != BoundaryMur1 { // Mur history is not checkpointed
			for k := 0; k <= spec.Steps; k++ {
				rows = append(rows, split(k)...)
			}
		}
		seq := mustSeq(t, spec)
		for _, r := range rows {
			res, err := r.run(spec)
			if err != nil {
				t.Fatalf("%v %s: %v", spec.Boundary, r.name, err)
			}
			if !seq.NearFieldEqual(res) {
				t.Errorf("%v %s: near field or probe differs from sequential", spec.Boundary, r.name)
			}
			if seq.Work != res.Work {
				t.Errorf("%v %s: work %v, sequential %v", spec.Boundary, r.name, res.Work, seq.Work)
			}
			if r.far && !seq.FarFieldEqual(res) {
				t.Errorf("%v %s: far field differs from sequential", spec.Boundary, r.name)
			}
		}

		// The sequential program is the trivial decomposition: it must
		// not send a single message.
		opt := sequentialOptions(false)
		opt.Mesh.Profile = machine.NewProfile(1)
		pr, err := plan(spec, 1, opt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pr.exec(mesh.Sim); err != nil {
			t.Fatal(err)
		}
		if n, b := opt.Mesh.Profile.Totals().Messages, opt.Mesh.Profile.Totals().Bytes; n != 0 || b != 0 {
			t.Errorf("%v: sequential program sent %d messages (%d bytes), want none", spec.Boundary, n, b)
		}
		if w := opt.Mesh.Profile.Totals().Work; w != seq.Work {
			t.Errorf("%v: sequential profile work %v != result work %v", spec.Boundary, w, seq.Work)
		}
	}
}

// TestFastPathIdentity1D sweeps the fast-path configuration space of the
// 1-D slab decomposition — serial vs tiled kernels, both runtimes, P in
// {1,2,4}, each with the interior windows its neighbours give it — and
// requires the near field and probe series to stay bitwise identical to
// the sequential program.  This is the refinement-correctness claim of
// the performance work: every fast-path transformation permutes
// independent operations only, so by the paper's Theorem 1 the final
// state cannot change at all.
func TestFastPathIdentity1D(t *testing.T) {
	for _, spec := range []Spec{SpecSmallA(), SpecSmall()} {
		seq := mustSeq(t, spec)
		for _, p := range []int{1, 2, 4} {
			for _, workers := range []int{1, 4} {
				for _, mode := range []mesh.Mode{mesh.Sim, mesh.Par} {
					opt := DefaultOptions()
					opt.Mesh.Workers = workers
					res := mustArch(t, spec, p, mode, opt)
					if !seq.NearFieldEqual(res) {
						t.Fatalf("ffield=%v p=%d workers=%d %v: near field differs from sequential",
							spec.IsVersionC(), p, workers, mode)
					}
					for i := range seq.Probe {
						if seq.Probe[i] != res.Probe[i] {
							t.Fatalf("ffield=%v p=%d workers=%d %v: probe[%d] differs",
								spec.IsVersionC(), p, workers, mode, i)
						}
					}
				}
			}
		}
	}
}

// TestFastPathIdentity2D repeats the sweep for the 2-D block
// decomposition, where the split exchange defers both the x- and y-axis
// ghost receives past the interior update, and each block's windows
// depend on which of its four neighbours exist.
func TestFastPathIdentity2D(t *testing.T) {
	spec := SpecSmall()
	seq := mustSeq(t, spec)
	for _, pg := range [][2]int{{1, 1}, {2, 1}, {1, 2}, {2, 2}, {4, 2}} {
		for _, workers := range []int{1, 4} {
			for _, mode := range []mesh.Mode{mesh.Sim, mesh.Par} {
				opt := DefaultOptions()
				opt.Mesh.Workers = workers
				res, err := RunArchetype2D(spec, pg[0], pg[1], mode, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !seq.NearFieldEqual(res) {
					t.Fatalf("px=%d py=%d workers=%d %v: near field differs from sequential",
						pg[0], pg[1], workers, mode)
				}
			}
		}
	}
}

// TestStepWindows checks the stepper's update windows on every rank of
// slab (P = 1, 2, 3) and block (2x2, 4x2) decompositions: the three E
// windows, and separately the three H windows, cover every local
// column exactly once, no interior window contains a column that reads
// a ghost a neighbour fills, and the sequential program (P = 1) runs
// each half-step as one window.
func TestStepWindows(t *testing.T) {
	spec := SpecSmall()
	type layout struct {
		px, py  int
		slabbed bool
	}
	for _, l := range []layout{{1, 1, true}, {2, 1, true}, {3, 1, true}, {2, 2, false}, {4, 2, false}} {
		dec, err := decompose(spec, l.px, l.py, l.slabbed)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < dec.procs(); r++ {
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
				if dec.procs() == 1 && nonEmpty != 1 {
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

// TestTiledKernelDeterminism checks that the tile pool's work splitting
// is invisible in the results: any worker count produces the same near
// field, probe, and work tally as the serial kernel.  Run under -race
// (make race) this also checks that concurrent tiles never touch the
// same cells.
func TestTiledKernelDeterminism(t *testing.T) {
	spec := SpecSmall()
	base := func() Options {
		opt := DefaultOptions()
		opt.Mesh.Workers = 1
		return opt
	}
	want := mustArch(t, spec, 2, mesh.Par, base())
	for _, workers := range []int{2, 3, 4, 7} {
		opt := base()
		opt.Mesh.Workers = workers
		got := mustArch(t, spec, 2, mesh.Par, opt)
		if !want.NearFieldEqual(got) {
			t.Fatalf("workers=%d: near field differs from serial kernel", workers)
		}
		if want.Work != got.Work {
			t.Fatalf("workers=%d: work tally %v, serial %v", workers, got.Work, want.Work)
		}
	}
}
