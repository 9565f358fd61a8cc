package main

import (
	"fmt"
	"time"

	"repro/internal/channel"
	"repro/internal/fdtd"
	"repro/internal/mesh"
	"repro/internal/obs"
)

// solveOptions are the archetype defaults with serial tile kernels, so
// that P-scaling is not confused with tiling on a two-core host.
func solveOptions() fdtd.Options {
	opt := fdtd.DefaultOptions()
	opt.Mesh.Workers = 1
	return opt
}

// solveOracle is what every solve of a spec must equal bit for bit: the
// sequential simulated-parallel run on the same P (near and far field)
// and the original sequential program (near field; its far-field sums
// are ordered differently by design).
type solveOracle struct{ sim, seq *fdtd.Result }

func newSolveOracle(spec fdtd.Spec, corrupt bool) (*solveOracle, error) {
	sim, err := fdtd.RunArchetype(spec, ranks, mesh.Sim, solveOptions())
	if err != nil {
		return nil, fmt.Errorf("oracle: simulated-parallel run: %w", err)
	}
	seq, err := fdtd.RunSequential(spec)
	if err != nil {
		return nil, fmt.Errorf("oracle: sequential run: %w", err)
	}
	if !sim.NearFieldEqual(seq) {
		return nil, fmt.Errorf("oracle: simulated-parallel and sequential near fields differ")
	}
	if corrupt {
		sim.Probe[len(sim.Probe)-1]++
	}
	return &solveOracle{sim: sim, seq: seq}, nil
}

func (o *solveOracle) check(r *fdtd.Result) bool {
	return r.NearFieldEqual(o.sim) && r.FarFieldEqual(o.sim) && r.NearFieldEqual(o.seq)
}

// solved is one finished solve and, when traced, what the observation
// seams saw of it.
type solved struct {
	res          *fdtd.Result
	buildAt, end time.Time // mesh build start (== start when in-process), solve end
	start        time.Time // RunArchetype call
	snap         obs.Snapshot
	net          *channel.NetStats
}

func (s solved) wall() float64  { return s.end.Sub(s.start).Seconds() }
func (s solved) build() float64 { return s.start.Sub(s.buildAt).Seconds() }

// solve runs spec once on p ranks.  With socket, the ranks talk over a
// unix loopback mesh built for this solve alone (endpoint counters
// stack on a reused one) before the timed call and closed after it.
// With traced, the obs collector and the channel counters are on.
func solve(spec fdtd.Spec, p int, socket, traced bool) (solved, error) {
	opt := solveOptions()
	var s solved
	var sockOpt channel.SocketOptions
	if traced {
		s.net = channel.NewNetStats(p)
		opt.Mesh.ChanStats = s.net
		sockOpt.Stats = s.net
	}
	s.buildAt = time.Now()
	if socket {
		tr, err := channel.NewLoopbackMesh[mesh.Msg](p, "unix", mesh.WireCodec(), sockOpt)
		if err != nil {
			return s, err
		}
		defer tr.Close()
		opt.Mesh.Transport = tr
	}
	if traced {
		opt.Mesh.Obs = obs.New(p)
	}
	s.start = time.Now()
	res, err := fdtd.RunArchetype(spec, p, mesh.Par, opt)
	s.end = time.Now()
	if err != nil {
		return s, err
	}
	s.res = res
	if traced {
		opt.Mesh.Obs.Finish()
		s.snap = opt.Mesh.Obs.Snapshot()
	}
	return s, nil
}

// solveLoop repeats solves of spec for d, at least twice, checking each
// against the oracle (nil skips the check: the P=1 baseline is not an
// operation of the workload).  Traced solves record their spans.
func solveLoop(res *result, cfg runConfig, spec fdtd.Spec, p int, socket, traced bool, d time.Duration, oracle *solveOracle) ([]solved, error) {
	var out []solved
	deadline := time.Now().Add(d)
	for len(out) < 2 || time.Now().Before(deadline) {
		s, err := solve(spec, p, socket, traced)
		if err != nil {
			return nil, err
		}
		if oracle != nil {
			ok := oracle.check(s.res)
			checked := time.Now()
			res.count(ok)
			if traced {
				op := len(out) + 1
				root := cfg.trace.add(op, 0, "bench", "solve-op", s.buildAt, checked, nil)
				if socket {
					cfg.trace.add(op, root, "channel", "NewLoopbackMesh", s.buildAt, s.start, nil)
				}
				cfg.trace.add(op, root, "fdtd", "RunArchetype", s.start, s.end, phaseAttrs(s.snap))
				cfg.trace.add(op, root, "bench", "oracle-check", s.end, checked, map[string]any{"ok": ok})
			}
		}
		s.res = nil // six field grids per solve are not worth keeping
		out = append(out, s)
	}
	return out, nil
}

// phaseAttrs is the per-rank phase split of one solve, attached to its
// span: the spans inside the program are the program's to record.
func phaseAttrs(snap obs.Snapshot) map[string]any {
	attrs := map[string]any{}
	for _, r := range snap.Ranks {
		for ph := obs.Phase(0); ph < obs.NumPhases; ph++ {
			attrs[fmt.Sprintf("rank%d.%s_ns", r.Rank, ph)] = r.Phase[ph].Nanoseconds()
		}
	}
	return attrs
}

// overRanks maps the ranks of one solve's snapshot through f.
func overRanks(snap obs.Snapshot, f func(obs.RankSnapshot) float64) []float64 {
	out := make([]float64, len(snap.Ranks))
	for i, r := range snap.Ranks {
		out[i] = f(r)
	}
	return out
}

func walls(ss []solved) []float64 { return each(ss, solved.wall) }

// each maps solves through f.
func each(ss []solved, f func(solved) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

// runSolver is fig2-p2-inproc (socket false) and halo-p2-socket (socket
// true): closed-loop solves of one seeded spec on two ranks.
func runSolver(base fdtd.Spec, socket bool, cfg runConfig) (*result, error) {
	res := &result{Traced: cfg.traced}
	spec := perturb(base, cfg.seed, 0)
	oracle, err := newSolveOracle(spec, cfg.corruptOracle)
	if err != nil {
		return nil, err
	}

	// One set-up is what a user pays before the first timed solve: the
	// transport and a warm-up solve on it.
	var setups []float64
	for i := 0; i < cfg.sz.setupReps; i++ {
		s, err := solve(spec, ranks, socket, false)
		if err != nil {
			return nil, err
		}
		res.count(oracle.check(s.res))
		setups = append(setups, s.build()+s.wall())
	}

	if !cfg.traced {
		ss, err := solveLoop(res, cfg, spec, ranks, socket, false, cfg.span(1), oracle)
		if err != nil {
			return nil, err
		}
		ms := scaled(walls(ss), 1e3)
		addEndToEnd(&res.Metrics, ms, []float64{quantile(sortedCopy(ms), 0.9)},
			[]float64{ratio(float64(len(ss)), sum(walls(ss)))}, setups)
		return res, nil
	}

	// Traced pass: an untraced slice for the tracing overhead and the
	// honest P=2 leg of the speedup, the traced slice, then the P=1
	// baseline on the same kernel and grid.
	plain, err := solveLoop(res, cfg, spec, ranks, socket, false, cfg.span(0.25), oracle)
	if err != nil {
		return nil, err
	}
	traced, err := solveLoop(res, cfg, spec, ranks, socket, true, cfg.span(0.5), oracle)
	if err != nil {
		return nil, err
	}
	p1, err := solveLoop(res, cfg, spec, 1, false, false, cfg.span(0.25), nil)
	if err != nil {
		return nil, err
	}

	m := &res.Metrics
	// phase is, per traced solve, the mean over ranks of the time in ph.
	phase := func(ph obs.Phase) []float64 {
		return each(traced, func(s solved) float64 {
			return mean(overRanks(s.snap, func(r obs.RankSnapshot) float64 { return r.Phase[ph].Seconds() }))
		})
	}
	// total is, per traced solve, the sum over ranks of a counter.
	total := func(f func(obs.RankSnapshot) int64) []float64 {
		return each(traced, func(s solved) float64 {
			return sum(overRanks(s.snap, func(r obs.RankSnapshot) float64 { return float64(f(r)) }))
		})
	}
	m.addSample("fdtd.compute_s", "s", phase(obs.PhaseCompute))
	m.add("fdtd.cell_updates", "count", float64(spec.Cells())*float64(spec.Steps))
	m.addSample("mesh.exchange_s", "s", phase(obs.PhaseExchange))
	m.addSample("mesh.collective_s", "s", phase(obs.PhaseCollective))
	m.addSample("mesh.io_s", "s", phase(obs.PhaseIO))
	m.addSample("mesh.messages", "count", total(func(r obs.RankSnapshot) int64 { return r.Sends }))
	m.addSample("mesh.bytes", "B", total(func(r obs.RankSnapshot) int64 { return r.BytesSent }))
	m.addSample("mesh.load_imbalance", "ratio", each(traced, func(s solved) float64 {
		compute := overRanks(s.snap, func(r obs.RankSnapshot) float64 { return r.Phase[obs.PhaseCompute].Seconds() })
		return ratio(maxOf(compute), mean(compute))
	}))
	m.addSample("mesh.baseline_p1_s", "s", walls(p1))
	m.add("mesh.speedup_p2", "ratio", ratio(median(walls(p1)), median(walls(plain))))

	net := func(f func(*channel.NetStats) int64) []float64 {
		return each(traced, func(s solved) float64 { return float64(f(s.net)) })
	}
	frames := net((*channel.NetStats).TotalWireFrames)
	flushes := net((*channel.NetStats).TotalFlushes)
	m.addSample("channel.wire_frames", "count", frames)
	m.addSample("channel.wire_bytes", "B", net((*channel.NetStats).TotalWireBytes))
	m.addSample("channel.wire_flushes", "count", flushes)
	m.addSample("channel.wire_syscalls", "count", net((*channel.NetStats).TotalSyscalls))
	m.add("channel.frames_per_flush", "ratio", ratio(median(frames), median(flushes)))
	m.add("channel.max_high_water", "count", maxOf(net((*channel.NetStats).MaxHighWater)))
	m.add("bench.trace_overhead", "ratio", ratio(median(walls(traced)), median(walls(plain)))-1)

	// Per rank the phases tile the collector's wall, so their means
	// over ranks must add up to the solve as the caller timed it.  Means
	// over solves too: medians of parts do not add up.
	res.setBudget(mean(walls(traced)),
		budgetRow{Part: "fdtd.compute_s", Seconds: mean(phase(obs.PhaseCompute))},
		budgetRow{Part: "mesh.exchange_s", Seconds: mean(phase(obs.PhaseExchange))},
		budgetRow{Part: "mesh.collective_s", Seconds: mean(phase(obs.PhaseCollective))},
		budgetRow{Part: "mesh.io_s", Seconds: mean(phase(obs.PhaseIO))},
	)
	if err := standaloneLayers(m, cfg.sz, spec); err != nil {
		return nil, err
	}
	return res, nil
}

// addEndToEnd records the four end-to-end metrics.  Each argument is a
// sample whose median is reported: the solver workloads pass one latency
// per solve, the jobs workloads one value per one-second window.
func addEndToEnd(m *metrics, p50ms, p90ms, perSecond, setups []float64) {
	m.addSample(mJobP50, "ms", p50ms)
	m.addSample(mJobP90, "ms", p90ms)
	m.addSample(mJobsPerS, "1/s", perSecond)
	m.addSample(mSetup, "s", setups)
}
