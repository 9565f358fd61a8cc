package fdtd

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/channel"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/mesh"
)

// identityGoldenFile holds the committed digests of the identity table,
// one line per spec and far-field summation order: name,
// Result.FieldHash, FarA, FarF, Work bits, probe series.
const identityGoldenFile = "testdata/identity.golden"

// seriesDigest hashes the bit patterns of a series, length included.
func seriesDigest(v []float64) uint64 {
	h := fnv.New64a()
	b := binary.LittleEndian.AppendUint64(nil, uint64(len(v)))
	for _, x := range v {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	h.Write(b)
	return h.Sum64()
}

// identityLine renders a result's digests as its golden-file line.
func identityLine(name string, r *Result) string {
	return fmt.Sprintf("%s %016x %016x %016x %016x %016x", name, r.FieldHash(),
		seriesDigest(r.FarA), seriesDigest(r.FarF), math.Float64bits(r.Work), seriesDigest(r.Probe))
}

// readIdentityGolden returns the committed line of every name.
func readIdentityGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(identityGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, _, _ := strings.Cut(line, " ")
		want[name] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// column is one spec of the identity table.
type column struct {
	name string // the spec's name in the golden file
	spec Spec
	comp bool // every stage accumulates the far field compensated
}

func (c column) String() string {
	if c.comp {
		return c.name + "-compensated"
	}
	return c.name
}

// golden returns the golden-file name of stage st's cell in column c:
// the spec and, when it has a far field, the stage's summation order.
func (c column) golden(st stage) string {
	if !c.spec.IsVersionC() {
		return c.name
	}
	name := c.name + "/" + st.order
	if c.comp {
		name += "/compensated"
	}
	return name
}

// identityColumns are the table's specs by column name: SpecSmallA and
// SpecSmall with PEC and with Mur walls, a Ricker plane source, a
// far-field direction with negative components, the 24x16x16 job grid
// naive and compensated, and 24 steps of Table 1.
func identityColumns() map[string]column {
	mur := func(s Spec) Spec {
		s.Boundary = BoundaryMur1
		return s
	}
	plane := SpecSmall()
	plane.Source.Kind = SourcePlaneX
	plane.Source.Shape = PulseRicker
	table1 := SpecTable1()
	table1.Steps = 24
	skew := SpecSmall()
	skew.FarField = &FarFieldSpec{Offset: 2, Dir: [3]float64{-0.7, 0.4, -1.3}, Pol: [3]float64{0.2, -1, 0.5}}
	cols := map[string]column{}
	for _, c := range []column{
		{"smallA", SpecSmallA(), false},
		{"smallA-mur", mur(SpecSmallA()), false},
		{"small", SpecSmall(), false},
		{"small-mur", mur(SpecSmall()), false},
		{"small-ricker-plane", plane, false},
		{"small-negdir", skew, false},
		{"job", haloGrid(64), false},
		{"job", haloGrid(64), true},
		{"table1", table1, false},
	} {
		cols[c.String()] = c
	}
	return cols
}

// stageRun runs a stage on spec; opt is DefaultOptions with the cell's
// far-field mode.
type stageRun func(t *testing.T, spec Spec, opt Options) (*Result, error)

// stage is one row of the identity table: the one program on some
// decomposition, runtime, transport, kernel or sequence of step
// windows, and the columns it applies to.
type stage struct {
	name string
	// order names the far-field summation order: the decomposition
	// ("P=3" for 3x1 blocks, "2x3" for 2x3 blocks), then the reduction
	// algorithm, compensation and window split where they differ from
	// one naive recursive-doubling reduction after one window.  A
	// single rank reduces nothing, so every one-rank stage sums in the
	// order "P=1".
	order  string
	reps   int               // runs per cell: a Par stage repeats
	serial bool              // it switches package state: no stage runs beside it
	cols   []string          // the columns it applies to
	refuse map[string]string // column -> text of the refusal its cell returns
	run    stageRun
}

// runWindow runs the one program on p x-slabs over one step window,
// from start (step 0 when nil) to until, exactly as RunWithRecovery
// runs each segment, and returns the state at until.
func runWindow(spec Spec, p int, opt Options, mode mesh.Mode, start *Checkpoint, until int) (*Checkpoint, error) {
	pr, err := plan(spec, p, 1, opt)
	if err != nil {
		return nil, err
	}
	pr.start, pr.until = start, until
	res, err := pr.exec(mode)
	if err != nil {
		return nil, err
	}
	return &Checkpoint{Result: *res, StepsDone: until}, nil
}

// mustSeqUntil runs the sequential program's first until steps.
func mustSeqUntil(t testing.TB, spec Spec, until int) *Checkpoint {
	t.Helper()
	ck, err := runWindow(spec, 1, sequentialOptions(false), mesh.Sim, nil, until)
	if err != nil {
		t.Fatal(err)
	}
	return ck
}

// sequentialOn runs the sequential program on the given kernels.  It is
// the trivial decomposition, so it must send no message, and its
// profile must tally the work its result reports.
func sequentialOn(kernel KernelVariant) stageRun {
	return func(_ *testing.T, spec Spec, opt Options) (*Result, error) {
		sopt := sequentialOptions(opt.FarFieldCompensated)
		sopt.Mesh.Profile = machine.NewProfile(1)
		pr, err := plan(spec, 1, 1, sopt)
		if err != nil {
			return nil, err
		}
		pr.kernel = kernel
		res, err := pr.exec(mesh.Sim)
		if err != nil {
			return nil, err
		}
		if tot := sopt.Mesh.Profile.Totals(); tot.Messages != 0 || tot.Bytes != 0 || tot.Work != res.Work {
			return nil, fmt.Errorf("sequential program sent %d messages (%d bytes), profiled work %v of %v",
				tot.Messages, tot.Bytes, tot.Work, res.Work)
		}
		return res, nil
	}
}

// runWorkers runs spec as p RunArchetypeWorker ranks joined by a
// unix-socket mesh, the body of p -procs worker processes, and returns
// rank 0's assembled result.  Every rank's copy of the broadcast probe
// series must be rank 0's.
func runWorkers(spec Spec, p int, dir string, opt Options) (*Result, error) {
	addrs := make([]string, p)
	for i := range addrs {
		addrs[i] = filepath.Join(dir, fmt.Sprintf("rank-%d.sock", i))
	}
	results := make([]*Result, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, err := channel.DialMesh("unix", addrs, r, mesh.WireCodec(), channel.SocketOptions{})
			if err != nil {
				errs[r] = err
				return
			}
			defer tr.Close()
			results[r], errs[r] = RunArchetypeWorker(spec, r, tr, opt)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	for r, res := range results {
		if seriesDigest(res.Probe) != seriesDigest(results[0].Probe) {
			return nil, fmt.Errorf("rank %d's probe series differs from rank 0's", r)
		}
	}
	return results[0], nil
}

// recovered runs spec under RunWithRecovery on p ranks in windows of 5
// steps, with checkpoints in memory.  With crashAt > 0, rank p-1
// crashes there once and the run absorbs it; a crash in the first
// window restarts from step 0.
func recovered(p, crashAt int) stageRun {
	return func(_ *testing.T, spec Spec, opt Options) (*Result, error) {
		if crashAt > 0 {
			opt.Inject = fault.NewCrash(p-1, crashAt)
		}
		rep, err := RunWithRecovery(spec, RecoveryOptions{P: p, Opt: opt, CheckpointEvery: 5})
		if err != nil {
			return nil, err
		}
		return rep.Result, nil
	}
}

// recoveredFromFile runs spec under RunWithRecovery on p ranks in
// windows of 5 steps, checkpointing to a file.  A first attempt with no
// restart budget dies at step 7 and leaves the step-5 checkpoint; the
// run resumed from it absorbs a second crash at step 12 by reloading
// the step-10 one.
func recoveredFromFile(p int) stageRun {
	return func(t *testing.T, spec Spec, opt Options) (*Result, error) {
		ro := RecoveryOptions{P: p, Opt: opt, CheckpointEvery: 5, Path: filepath.Join(t.TempDir(), "run.ckp"), MaxRestarts: -1}
		ro.Opt.Inject = fault.NewCrash(p-1, 7)
		if _, err := RunWithRecovery(spec, ro); err == nil {
			return nil, errors.New("the first attempt survived its crash")
		} else if _, crashed := fault.AsCrash(err); !crashed {
			return nil, err
		}
		ro.Opt.Inject, ro.MaxRestarts, ro.Resume = fault.NewCrash(0, 12), 0, true
		rep, err := RunWithRecovery(spec, ro)
		if err != nil {
			return nil, err
		}
		return rep.Result, nil
	}
}

// identityStages are the table's rows.
func identityStages() []stage {
	small := []string{"smallA", "smallA-mur", "small", "small-mur", "small-ricker-plane", "small-negdir"}
	all := append(slices.Clone(small), "job", "job-compensated", "table1")
	pair := []string{"smallA", "small"}
	mur := []string{"smallA-mur", "small-mur"}
	withOpt := func(edit func(*Options), run stageRun) stageRun {
		return func(t *testing.T, spec Spec, opt Options) (*Result, error) {
			edit(&opt)
			return run(t, spec, opt)
		}
	}
	slabs := func(p int, mode mesh.Mode) stageRun {
		return func(_ *testing.T, spec Spec, opt Options) (*Result, error) {
			return RunArchetype(spec, p, mode, opt)
		}
	}
	blocks := func(px, py int, mode mesh.Mode) stageRun {
		return func(_ *testing.T, spec Spec, opt Options) (*Result, error) {
			return RunArchetype2D(spec, px, py, mode, opt)
		}
	}
	// runtimes adds a stage under SSP and under Par: SSP on ssp's
	// columns, Par, three times, on par's.
	var stages []stage
	runtimes := func(name, order string, ssp, par []string, run func(mode mesh.Mode) stageRun) {
		stages = append(stages,
			stage{name: "ssp " + name, order: order, cols: ssp, run: run(mesh.Sim)},
			stage{name: "par " + name, order: order, reps: 3, cols: par, run: run(mesh.Par)})
	}

	stages = append(stages,
		stage{name: "sequential", order: "P=1", cols: all, run: sequentialOn(KernelPencil)},
		stage{name: "reference kernels", order: "P=1", cols: small, run: sequentialOn(KernelReference)})
	for _, body := range []rowBody{rowGeneric, rowAVX2} {
		stages = append(stages, stage{name: body.String(), order: "P=1", serial: true,
			cols: append(slices.Clone(small), "job", "table1"),
			run: func(t *testing.T, spec Spec, opt Options) (*Result, error) {
				if !slices.Contains(rowBodies(), body) {
					t.Skipf("this CPU cannot run the %v row body", body)
				}
				defer func(old rowBody) { activeRow = old }(activeRow)
				activeRow = body
				return sequentialOn(KernelPencil)(t, spec, opt)
			}})
	}
	for _, p := range []int{1, 2, 3, 4} {
		ssp := slices.Clone(small)
		switch p {
		case 2:
			ssp = append(ssp, "job", "job-compensated")
		case 3:
			ssp = append(ssp, "table1")
		}
		runtimes(fmt.Sprintf("P=%d", p), fmt.Sprintf("P=%d", p), ssp, append(slices.Clone(pair), mur...),
			func(mode mesh.Mode) stageRun { return slabs(p, mode) })
	}
	for _, g := range [][2]int{{1, 2}, {2, 2}, {3, 2}, {2, 3}, {4, 3}} {
		order := fmt.Sprintf("%dx%d", g[0], g[1])
		ssp := slices.Clone(small)
		if g == [2]int{2, 2} {
			ssp = append(ssp, "job", "job-compensated")
		}
		runtimes(order, order, ssp, pair,
			func(mode mesh.Mode) stageRun { return blocks(g[0], g[1], mode) })
	}
	for _, w := range []int{1, 2, 3, 4, 7} {
		tiles := func(o *Options) { o.Mesh.Workers = w }
		stages = append(stages,
			stage{name: fmt.Sprintf("tile workers %d P=2", w), order: "P=2", cols: pair,
				run: withOpt(tiles, slabs(2, mesh.Par))},
			stage{name: fmt.Sprintf("tile workers %d 2x2", w), order: "2x2", cols: pair,
				run: withOpt(tiles, blocks(2, 2, mesh.Par))})
	}
	stages = append(stages,
		stage{name: "combine off", order: "P=4", cols: pair,
			run: withOpt(func(o *Options) { o.Mesh.Combine = false }, slabs(4, mesh.Sim))},
		stage{name: "host I/O off P=3", order: "P=3", cols: pair,
			run: withOpt(func(o *Options) { o.HostIO = false }, slabs(3, mesh.Sim))},
		stage{name: "host I/O off 2x2", order: "2x2", cols: pair,
			run: withOpt(func(o *Options) { o.HostIO = false }, blocks(2, 2, mesh.Sim))})
	farCols := []string{"small", "small-negdir"}
	runtimes("all-to-one P=4", "P=4/alltoone", farCols, farCols, func(mode mesh.Mode) stageRun {
		return withOpt(func(o *Options) { o.Mesh.ReduceAlg = mesh.AllToOne }, slabs(4, mode))
	})
	runtimes("compensated P=3", "P=3/compensated", farCols, farCols, func(mode mesh.Mode) stageRun {
		return withOpt(func(o *Options) { o.FarFieldCompensated = true }, slabs(3, mode))
	})
	for _, p := range []int{1, 2, 4} {
		stages = append(stages,
			stage{name: fmt.Sprintf("tcp P=%d", p), order: fmt.Sprintf("P=%d", p), cols: pair,
				run: func(_ *testing.T, spec Spec, opt Options) (*Result, error) {
					tr, err := channel.NewLoopbackMesh(p, "tcp", mesh.WireCodec(), channel.SocketOptions{})
					if err != nil {
						return nil, err
					}
					defer tr.Close()
					opt.Mesh.Transport = tr
					return RunArchetype(spec, p, mesh.Par, opt)
				}},
			stage{name: fmt.Sprintf("workers P=%d", p), order: fmt.Sprintf("P=%d", p), cols: []string{"small"},
				run: func(t *testing.T, spec Spec, opt Options) (*Result, error) {
					return runWorkers(spec, p, t.TempDir(), opt)
				}})
	}
	// Mur boundary history is not part of a checkpoint: a Mur run
	// resumes only from step 0 and takes no mid-run checkpoint.
	steps := SpecSmall().Steps
	for _, p := range []int{1, 3} {
		order := "P=1"
		if p > 1 {
			order = fmt.Sprintf("P=%d/every=5", p)
		}
		for _, r := range []struct {
			name string
			run  stageRun
		}{{"checkpointed", recovered(p, 0)}, {"recovered", recovered(p, 2)}, {"recovered from file", recoveredFromFile(p)}} {
			stages = append(stages, stage{name: fmt.Sprintf("%s P=%d", r.name, p), order: order, run: r.run,
				cols:   append(slices.Clone(pair), mur...),
				refuse: map[string]string{"smallA-mur": "mid-run checkpoints", "small-mur": "mid-run checkpoints"}})
		}
		// Resume at every split k: the sequential program's first k
		// steps, then the rest on p ranks — the sequential program at
		// P = 1, the parallel runtime at P = 3.
		for k := 0; k <= steps; k++ {
			order := "P=1"
			if p > 1 {
				order = fmt.Sprintf("P=%d/k=%d", p, k)
			}
			st := stage{name: fmt.Sprintf("resume P=%d k=%d", p, k), order: order,
				cols: append(slices.Clone(pair), mur...),
				run: func(_ *testing.T, spec Spec, opt Options) (*Result, error) {
					ck, err := runWindow(spec, 1, sequentialOptions(opt.FarFieldCompensated), mesh.Sim, nil, k)
					if err != nil {
						return nil, err
					}
					mode := mesh.Par
					if p == 1 {
						opt, mode = sequentialOptions(opt.FarFieldCompensated), mesh.Sim
					}
					ck, err = runWindow(spec, p, opt, mode, ck, spec.Steps)
					if err != nil {
						return nil, err
					}
					return &ck.Result, nil
				}}
			if k > 0 {
				st.refuse = map[string]string{"smallA-mur": "mid-stream", "small-mur": "mid-stream"}
			}
			stages = append(stages, st)
		}
	}
	return stages
}

// TestOneProgramIdentity is the paper's claim as one table.  Every row
// is a refinement stage: the one program (program.rank) on some
// decomposition, runtime, transport, kernel, worker count or sequence of
// step windows.  Every column is a spec.  Every cell must reproduce its
// column's committed near field, probe series and work tally bit for
// bit, and the committed far field of its summation order: the same
// spec on the same decomposition, reduction, compensation and window
// split.  A cell the program refuses must return its refusal.  A new
// stage of the refinement is a row of this table, not a test of its
// own.  The goldens are regenerated only by a change that means to
// alter the arithmetic; on a mismatch the test logs every current line
// in the file's format.
func TestOneProgramIdentity(t *testing.T) {
	want := readIdentityGolden(t)
	cols := identityColumns()
	var mu sync.Mutex
	got := map[string]string{}
	t.Cleanup(func() {
		if t.Failed() {
			var lines []string
			for _, line := range got {
				lines = append(lines, line)
			}
			sort.Strings(lines)
			t.Logf("current lines:\n%s", strings.Join(lines, "\n"))
		}
	})
	for _, st := range identityStages() {
		t.Run(st.name, func(t *testing.T) {
			if !st.serial {
				t.Parallel()
			}
			for _, name := range st.cols {
				col, ok := cols[name]
				if !ok {
					t.Fatalf("no column %s", name)
				}
				t.Run(name, func(t *testing.T) {
					opt := DefaultOptions()
					opt.FarFieldCompensated = col.comp
					golden := col.golden(st)
					for rep := 0; rep < max(st.reps, 1); rep++ {
						res, err := st.run(t, col.spec, opt)
						if refusal, ok := st.refuse[name]; ok {
							if err == nil || !strings.Contains(err.Error(), refusal) {
								t.Fatalf("got %v, want the refusal %q", err, refusal)
							}
							return
						}
						if err != nil {
							t.Fatal(err)
						}
						line := identityLine(golden, res)
						mu.Lock()
						got[golden] = line
						mu.Unlock()
						if w, ok := want[golden]; !ok {
							t.Errorf("no golden line %s", golden)
						} else if line != w {
							t.Errorf("rep %d:\n got %s\nwant %s", rep, line, w)
						}
					}
				})
			}
		})
	}
}

// rowBodyCells are the cells TestIdentityGolden runs once per row body,
// by stage and column: the decomposed and compensated runs the row-body
// rows of the table, which are sequential, do not reach.
var rowBodyCells = []struct{ stage, col string }{
	{"sequential", "job-compensated"},
	{"ssp P=2", "job"}, {"ssp P=2", "job-compensated"}, {"ssp P=2", "small-mur"},
	{"ssp 2x2", "job"}, {"ssp 2x2", "job-compensated"}, {"ssp 2x2", "small-negdir"},
	{"ssp P=3", "table1"},
}

// TestIdentityGolden holds the committed file to the table without
// running it: a line for every cell's golden name and no other, and one
// near field, Work and probe series per spec, so every stage on a spec
// reproduces the same near field.  Then, once per row body, it runs
// rowBodyCells against their lines: the table's other rows run on the
// default body only.
func TestIdentityGolden(t *testing.T) {
	want := readIdentityGolden(t)
	cols := identityColumns()
	names := map[string]bool{}
	for _, st := range identityStages() {
		for _, name := range st.cols {
			if _, refused := st.refuse[name]; !refused {
				names[cols[name].golden(st)] = true
			}
		}
	}
	for name := range names {
		if _, ok := want[name]; !ok {
			t.Errorf("no golden line %s", name)
		}
	}
	near := map[string]map[string]bool{}
	for name, line := range want {
		if !names[name] {
			t.Errorf("stale golden line %s", name)
		}
		f := strings.Fields(line)
		if len(f) != 6 {
			t.Fatalf("golden line %q: want a name and five digests", line)
		}
		spec, _, _ := strings.Cut(name, "/")
		if near[spec] == nil {
			near[spec] = map[string]bool{}
		}
		near[spec][f[1]+" "+f[4]+" "+f[5]] = true
	}
	for spec, digests := range near {
		if len(digests) != 1 {
			t.Errorf("%s: the golden lines hold %d different near fields, Work tallies or probe series", spec, len(digests))
		}
	}
	stages := map[string]stage{}
	for _, st := range identityStages() {
		stages[st.name] = st
	}
	forEachRowBody(t, func(t *testing.T) {
		for _, c := range rowBodyCells {
			st, ok := stages[c.stage]
			if !ok || !slices.Contains(st.cols, c.col) {
				t.Fatalf("the table has no cell %s × %s", c.stage, c.col)
			}
			col := cols[c.col]
			opt := DefaultOptions()
			opt.FarFieldCompensated = col.comp
			res, err := st.run(t, col.spec, opt)
			if err != nil {
				t.Fatalf("%s × %s: %v", c.stage, c.col, err)
			}
			golden := col.golden(st)
			if line := identityLine(golden, res); line != want[golden] {
				t.Errorf("%s × %s:\n got %s\nwant %s", c.stage, c.col, line, want[golden])
			}
		}
	})
}
