// Package mesh implements the paper's mesh archetype: the communication
// library and runtime support for parallel programs structured as grid
// operations, reductions, and file I/O over 1-, 2-, or 3-dimensional
// grids distributed as regular contiguous subgrids.
//
// Applications are written once, in SPMD style, as a function of a
// *Comm, and can then be executed under two interchangeable runtimes:
//
//   - Sim: the sequential simulated-parallel execution.  Exactly one
//     simulated process runs at a time under a deterministic schedule
//     (each process runs until it blocks on a receive), so the whole
//     execution is sequential and reproducible — this is the paper's
//     "sequential simulated-parallel version", and the archetype
//     library is "made available in both parallel and simulated-
//     parallel versions".
//   - Par: real concurrent execution with one goroutine per process
//     over single-reader single-writer channels with infinite slack.
//
// By Theorem 1, a deterministic SPMD program produces identical results
// under both runtimes; the fdtd package's tests verify this bitwise.
//
// The communication operations are the archetype's catalogue:
// boundary exchange (ExchangeGhost2D and the 3-D family in axis.go),
// broadcast of global data (Broadcast, BroadcastVec), reductions
// (AllReduce, AllReduceVecAlg, with recursive-doubling and all-to-one
// algorithms), and host↔grid redistribution for file I/O over px×py
// blocks, x-slabs being px×1 (Gather2D, Gather3DBlocks,
// Scatter3DBlocks).
package mesh

import (
	"fmt"
	"time"

	"repro/internal/channel"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sched"
)

// Mode selects a runtime.
type Mode int

// Runtimes.
const (
	// Sim is the sequential simulated-parallel execution.
	Sim Mode = iota
	// Par is the real concurrent execution.
	Par
)

func (m Mode) String() string {
	switch m {
	case Sim:
		return "simulated-parallel"
	case Par:
		return "parallel"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Msg is the payload of archetype messages: a flat vector of float64.
type Msg struct {
	Data []float64
}

// Options configures a run.
type Options struct {
	// Combine merges the per-plane messages of a ghost exchange into
	// one message per neighbour (the paper's "group of message-passing
	// operations with a common sender and a common receiver can be
	// combined for efficiency").  On by default via DefaultOptions.
	Combine bool
	// ReduceAlg selects the reduction algorithm.
	ReduceAlg ReduceAlg
	// Profile, if non-nil, records every process's work, messages and
	// phase ends for the machine performance model (see "Record a
	// profile" in docs/mesh-archetype.md).  Its P must match the run's.
	Profile *machine.Profile
	// StallTimeout arms the Par-mode stall watchdog (see
	// sched.Options.StallTimeout).  Exact deadlocks are detected
	// immediately regardless; this additionally bounds hangs the exact
	// detector cannot see.  Zero disables the watchdog.
	StallTimeout time.Duration
	// WrapEndpoint, if non-nil, wraps every Par-mode channel endpoint —
	// the fault-injection seam for message-delivery faults (see
	// sched.Options.WrapEndpoint).
	WrapEndpoint func(from, to int, e channel.Endpoint[Msg]) channel.Endpoint[Msg]
	// Obs, if non-nil, collects wall-clock observability: per-rank
	// send/recv/step/block counters (with payload bytes at 8 bytes per
	// float64) and phase timers.  Every archetype operation marks its
	// phase — boundary exchanges as obs.PhaseExchange, collectives as
	// obs.PhaseCollective, gather/scatter as obs.PhaseIO — and the time
	// between operations is compute.  The collector's P must match the
	// run's.  Works under both runtimes; under Sim the times measure the
	// simulation, not parallel execution (use machine.Model for modelled
	// parallel time).
	Obs *obs.Collector
	// ChanStats, if non-nil, counts per-channel traffic and queue
	// high-water marks via counting endpoint decorators.  Par mode only
	// (it rides the endpoint-wrapping seam); its P must match the run's.
	// When combined with WrapEndpoint, fault wrappers sit inside the
	// counters, so ChanStats sees what the program attempts to send.
	ChanStats *channel.NetStats
	// Transport, if non-nil, carries Par-mode messages over an external
	// substrate — e.g. a loopback socket mesh built with
	// channel.NewLoopbackMesh(p, network, mesh.WireCodec(), ...) — in
	// place of the default in-process channel network.  Its P must match
	// the run's.  Sim mode rejects it: the simulated-parallel executor
	// is by construction sequential and in-process.  The caller retains
	// ownership and should Close the transport after the run.  A run
	// leaves the transport as it found it (ChanStats and WrapEndpoint
	// decorate a per-run endpoint table), so one transport can carry
	// run after run.
	Transport channel.Transport[Msg]
	// Workers is the per-rank worker count for tiled compute kernels
	// (applications consult it via Comm.Workers).  0 means one worker
	// per available CPU (GOMAXPROCS); 1 forces serial kernels.  Tiles
	// are partitioned and combined in a fixed deterministic order, so
	// the worker count never changes results.
	Workers int
}

// DefaultOptions returns the archetype defaults: combined messages and
// recursive-doubling reductions.
func DefaultOptions() Options {
	return Options{Combine: true, ReduceAlg: RecursiveDoubling}
}

// Comm is one process's handle to the archetype library.  It is valid
// only within the function passed to Run.
type Comm struct {
	ctx *sched.Ctx[Msg]
	opt Options
}

// Rank returns this process's rank in [0, P).
func (c *Comm) Rank() int { return c.ctx.ID() }

// P returns the number of processes.
func (c *Comm) P() int { return c.ctx.P() }

// Options returns the run options (read-only by convention).
func (c *Comm) Options() Options { return c.opt }

// Work credits compute work (in abstract units, e.g. cell updates) to
// this process in its current phase, for the performance model.
func (c *Comm) Work(units float64) {
	c.opt.Profile.Work(c.Rank(), units)
}

// send transmits data to process `to`, recording it in the profile.  The
// slice is copied (into a pooled buffer): archetype messages never
// alias sender memory, just as real message passing cannot.  Hot paths
// that already pack into a getBuf buffer should call sendOwned instead
// and skip this copy.
func (c *Comm) send(to int, data []float64) {
	buf := getBuf(len(data))
	copy(buf, data)
	c.sendOwned(to, buf)
}

// sendOwned transmits data to process `to`, transferring ownership of
// the slice: the caller must not touch data afterwards.  The receiver
// returns the buffer to the arena (putBuf) once consumed.  This is the
// zero-copy half of the messaging fast path: pack with getBuf +
// grid.Pack* directly into the message payload, then hand it off.
func (c *Comm) sendOwned(to int, data []float64) {
	c.ctx.Send(to, Msg{Data: data})
	c.opt.Profile.Send(c.Rank(), to, 8*len(data))
}

// recv receives the next message from process `from`.
func (c *Comm) recv(from int) []float64 {
	m := c.ctx.Recv(from)
	c.opt.Profile.Recv(c.Rank(), from)
	return m.Data
}

// flush marks the end of an operation's send section: on a socket
// transport it seals every frame queued since the last flush into one
// write per neighbour, so an exchange phase costs one syscall
// per link.  On in-process transports it is a no-op.  The runtime also
// flushes automatically before blocking in a receive and at process
// termination, so this is a batching boundary, not a correctness
// requirement.
func (c *Comm) flush() { c.ctx.Flush() }

// beginPhase opens an observability span for one archetype operation;
// the operation's endPhase call closes it.  Every operation that calls
// endPhase calls beginPhase first, so the wall-clock spans pair exactly
// with the bulk-synchronous phase structure.
func (c *Comm) beginPhase(ph obs.Phase, label string) {
	c.opt.Obs.Begin(c.Rank(), ph, label)
}

// endPhase closes this process's current bulk-synchronous phase.
// Every collective calls it exactly once, so all processes advance
// through the same phase sequence.
func (c *Comm) endPhase() {
	c.opt.Obs.End(c.Rank())
	c.opt.Profile.EndPhase(c.Rank())
}

// Run executes the SPMD function f on p processes under the given mode
// and returns the per-process results.  Under Sim the execution is
// sequential and deterministic; under Par it uses one goroutine per
// process.
//
// Both runtimes are supervised: a process panic is recovered and
// returned as an error (wrapping the panic value when it is an error),
// and a deadlocked network returns a diagnostic error naming the
// blocked ranks and empty channels instead of hanging.  A correct
// archetype program produces neither, so callers may treat any error as
// a program or injected fault.  On error the results are partial and
// must not be used.
func Run[R any](p int, mode Mode, opt Options, f func(c *Comm) R) ([]R, error) {
	if p <= 0 {
		return nil, fmt.Errorf("mesh: process count must be positive, got %d", p)
	}
	if opt.Transport != nil {
		if mode != Par {
			return nil, fmt.Errorf("mesh: external transports require Par mode, got %v", mode)
		}
		if opt.Transport.P() != p {
			return nil, fmt.Errorf("mesh: transport built for %d processes, run has %d", opt.Transport.P(), p)
		}
	}
	schedOpt, err := schedOptions(p, opt)
	if err != nil {
		return nil, err
	}
	procs := Procs(p, opt, f)
	switch mode {
	case Sim:
		// Lowest-rank-first scheduling: each simulated process runs
		// until it blocks on a receive — the sequential simulated-
		// parallel order of the paper's Figure 1.
		return sched.RunControlled(procs, sched.Lowest{}, schedOpt)
	case Par:
		return sched.RunConcurrent(procs, schedOpt)
	default:
		return nil, fmt.Errorf("mesh: unknown mode %v", mode)
	}
}

// RunWorker executes one rank of the SPMD function f over a per-rank
// transport (channel.DialMesh) — the multi-process backend: each OS
// process calls RunWorker with its own rank and its own transport, and
// by Theorem 1 every rank's result is bitwise identical to the same
// rank's result under Run.  It runs on Par's supervised backend, so
// every option means what it means under Par — opt.StallTimeout arms
// the same watchdog — except opt.Transport, whose place tr takes.
func RunWorker[R any](rank int, tr channel.Transport[Msg], opt Options, f func(c *Comm) R) (R, error) {
	var zero R
	if tr == nil {
		return zero, fmt.Errorf("mesh: worker rank %d has no transport", rank)
	}
	p := tr.P()
	if rank < 0 || rank >= p {
		return zero, fmt.Errorf("mesh: worker rank %d out of range (P=%d)", rank, p)
	}
	schedOpt, err := schedOptions(p, opt)
	if err != nil {
		return zero, err
	}
	return sched.RunWorker(rank, tr, Procs(p, opt, f)[rank], schedOpt)
}

// schedOptions checks opt's per-rank instruments against a p-rank run
// and lowers opt to the scheduler options Run and RunWorker share.
// ChanStats' counters wrap outside any fault wrapper, so they see what
// the program attempts to send.
func schedOptions(p int, opt Options) (sched.Options[Msg], error) {
	if opt.Obs != nil && opt.Obs.P() != p {
		return sched.Options[Msg]{}, fmt.Errorf("mesh: obs collector sized for %d processes, run has %d", opt.Obs.P(), p)
	}
	if opt.Profile != nil && opt.Profile.P() != p {
		return sched.Options[Msg]{}, fmt.Errorf("mesh: profile sized for %d processes, run has %d", opt.Profile.P(), p)
	}
	if opt.ChanStats != nil && opt.ChanStats.P() != p {
		return sched.Options[Msg]{}, fmt.Errorf("mesh: channel stats sized for %d processes, run has %d", opt.ChanStats.P(), p)
	}
	wrap := opt.WrapEndpoint
	if stats := opt.ChanStats; stats != nil {
		inner := wrap
		wrap = func(from, to int, e channel.Endpoint[Msg]) channel.Endpoint[Msg] {
			if inner != nil {
				e = inner(from, to, e)
			}
			return channel.Counted(stats, from, to, e)
		}
	}
	return sched.Options[Msg]{
		Tag:          func(m Msg) string { return fmt.Sprintf("[%d]f64", len(m.Data)) },
		StallTimeout: opt.StallTimeout,
		WrapEndpoint: wrap,
		Collector:    opt.Obs,
		MsgBytes:     func(m Msg) int { return 8 * len(m.Data) },
		Transport:    opt.Transport,
	}, nil
}

// Procs lowers the SPMD function to a plain network of sched processes,
// exposed so the schedule explorer can drive archetype programs under
// arbitrary policies and forced schedules.  Run wires the same lowering
// to the standard runtimes.
func Procs[R any](p int, opt Options, f func(c *Comm) R) []sched.Proc[Msg, R] {
	procs := make([]sched.Proc[Msg, R], p)
	for i := 0; i < p; i++ {
		procs[i] = func(ctx *sched.Ctx[Msg]) R {
			return f(&Comm{ctx: ctx, opt: opt})
		}
	}
	return procs
}
