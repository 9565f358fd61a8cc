package main

import (
	"time"

	"repro/internal/fdtd"
)

// End-to-end metric names, as BENCHMARK.json declares them.  A "job" is
// the unit a user waits for: one fdtd.RunArchetype call on the solver
// workloads, one POST /v1/jobs through the coordinator on the jobs
// workloads.
const (
	mJobP50   = "job_p50_ms"
	mJobP90   = "job_p90_ms"
	mJobsPerS = "jobs_per_s"
	mSetup    = "setup_s"
)

// ranks is P for every solve and every job: the host has two cores, and
// tile workers stay at 1 so ranks x workers never exceeds them.
const ranks = 2

// sizes is everything that scales a workload.  paperSizes is the
// benchmark; toySizes keeps the smoke test under a few seconds.
type sizes struct {
	fig2 fdtd.Spec // fig2-p2-inproc grid
	halo fdtd.Spec // halo-p2-socket grid
	job  fdtd.Spec // jobs-cold / jobs-zipf spec family

	setupReps  int // set-ups per run; setup_s is their median
	coldWarm   int // warm-up requests per jobs-cold set-up
	zipfWarm   int // warm-up requests per jobs-zipf set-up
	zipfSpecs  int // distinct specs behind jobs-zipf
	coldSample int // cold responses recomputed by the oracle

	layerTime time.Duration // wall budget of each standalone microbench
}

// jobGrid is the 24x16x16 Version C grid the service workloads and
// halo-p2-socket share: cache-resident, a step is ~100 us.
func jobGrid(steps int) fdtd.Spec {
	s := fdtd.SpecTable1()
	s.NX, s.NY, s.NZ, s.Steps = 24, 16, 16, steps
	s.Source.I, s.Source.J, s.Source.K = 12, 8, 8
	s.Probe = [3]int{15, 8, 8}
	s.Objects = []fdtd.Object{
		{I0: 6, I1: 11, J0: 4, J1: 12, K0: 4, K1: 12, EpsR: 4, MuR: 1, Sigma: 0.02},
		{I0: 14, I1: 19, J0: 5, J1: 11, K0: 5, K1: 11, EpsR: 1, MuR: 2, SigmaM: 0.01},
	}
	return s
}

func paperSizes() sizes {
	return sizes{
		fig2:       fdtd.SpecFigure2(),
		halo:       jobGrid(4096),
		job:        jobGrid(64),
		setupReps:  5,
		coldWarm:   100,
		zipfWarm:   2000,
		zipfSpecs:  64,
		coldSample: 32,
		layerTime:  200 * time.Millisecond,
	}
}

func toySizes() sizes {
	fig2 := fdtd.SpecSmallA()
	fig2.Steps = 24
	halo := fdtd.SpecSmall()
	halo.Steps = 48
	return sizes{
		fig2:       fig2,
		halo:       halo,
		job:        fdtd.SpecSmall(),
		setupReps:  2,
		coldWarm:   4,
		zipfWarm:   40,
		zipfSpecs:  8,
		coldSample: 4,
		layerTime:  5 * time.Millisecond,
	}
}

// perturb derives spec number i of a seeded family from base: the
// source delay moves by less than one step, which changes the
// fingerprint and every field value but not the amount of work.
func perturb(base fdtd.Spec, seed int64, i int) fdtd.Spec {
	s := base
	s.Source.Delay += float64(uint64(seed)%1000)/1000 + float64(i)*1e-6
	return s
}

// runConfig is one run of one workload.
type runConfig struct {
	seed    int64
	seconds float64
	traced  bool
	sz      sizes
	trace   *tracer // spans of the traced pass; nil when untraced
	// corruptOracle flips the expected answers, so that every check must
	// fail: the smoke test uses it to prove the checks can fail.
	corruptOracle bool
}

func (c runConfig) span(d float64) time.Duration {
	return time.Duration(c.seconds * d * float64(time.Second))
}

// budgetRow is one part of a workload's blocking path in the traced
// pass.
type budgetRow struct {
	Part    string  `json:"part"`
	Seconds float64 `json:"seconds"`
	Share   float64 `json:"share"`
}

// result is what one run of one workload reports: end-to-end metrics
// from an untraced run, per-layer metrics from a traced one.
type result struct {
	Workload  string      `json:"workload"`
	Traced    bool        `json:"traced"`
	Attempted int         `json:"attempted"`
	Failed    int         `json:"failed"`
	Metrics   metrics     `json:"metrics"`
	Budget    []budgetRow `json:"budget,omitempty"`
	// BudgetWall is the wall the budget rows should add up to, and
	// TileError how far off they are, as a share of it.
	BudgetWall float64 `json:"budget_wall_s,omitempty"`
	TileError  float64 `json:"tile_error,omitempty"`

	trace *tracer // spans of a traced pass, written beside the report
}

// count records one checked operation.
func (r *result) count(ok bool) {
	r.Attempted++
	if !ok {
		r.Failed++
	}
}

func (r *result) correct() bool { return r.Failed == 0 && r.Attempted > 0 }

// setBudget fills the budget from named parts and the wall they tile.
func (r *result) setBudget(wall float64, parts ...budgetRow) {
	var sum float64
	for i := range parts {
		parts[i].Share = ratio(parts[i].Seconds, wall)
		sum += parts[i].Seconds
	}
	r.Budget = parts
	r.BudgetWall = wall
	r.TileError = ratio(abs(wall-sum), wall)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// workload is one named set of inputs.
type workload struct {
	name string
	run  func(cfg runConfig) (*result, error)
}

var workloads = []workload{
	{"fig2-p2-inproc", func(cfg runConfig) (*result, error) { return runSolver(cfg.sz.fig2, false, cfg) }},
	{"halo-p2-socket", func(cfg runConfig) (*result, error) { return runSolver(cfg.sz.halo, true, cfg) }},
	{"jobs-cold", func(cfg runConfig) (*result, error) { return runJobs(false, cfg) }},
	{"jobs-zipf", func(cfg runConfig) (*result, error) { return runJobs(true, cfg) }},
}
