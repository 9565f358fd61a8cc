package fdtd

import (
	"repro/internal/channel"
	"repro/internal/fault"
	"repro/internal/mesh"
)

// Options configures the archetype (simulated-parallel or parallel)
// builds of the application.
type Options struct {
	// Mesh carries the archetype runtime options (message combining,
	// reduction algorithm, performance profile).
	Mesh mesh.Options
	// FarFieldCompensated switches the far-field accumulation to
	// Neumaier-compensated local sums combined in rank order — the
	// repository's "fixed" far field.  The default (false) is the
	// paper's strategy: plain local double sums combined by one
	// reduction at the end, which reorders the floating-point summation.
	FarFieldCompensated bool
	// HostIO, when set, has a host process (rank 0) compute the global
	// coefficient grids and redistribute them with scatter operations —
	// the archetype's "separate host process responsible for file I/O".
	// When clear, every process computes its local coefficients
	// directly ("perform I/O concurrently in all processes").
	HostIO bool
	// Inject, when non-nil, is checked by each rank at the top of each
	// time step and crashes its target (rank, step) by panicking with a
	// *fault.Crash, which the runtime supervisor converts into an error.
	// Nil injects nothing.
	Inject *fault.Injector
	// Cancel, when non-nil, is a cooperative cancellation token checked
	// by each rank at the top of each time step (fault.Canceller.Check):
	// once armed, every rank panics with a *fault.Cancelled at its next
	// step boundary, which the runtime supervisor converts into an
	// error.  The job service uses it for per-job timeouts and drain.
	Cancel *fault.Canceller
}

// DefaultOptions returns the archetype defaults used by the paper's
// experiments: combined messages, recursive-doubling reductions, host
// I/O, uncompensated far field.
func DefaultOptions() Options {
	return Options{Mesh: mesh.DefaultOptions(), HostIO: true}
}

// RunArchetype executes the mesh-archetype build of the application on
// p processes (x-slabs: RunArchetype2D's p x 1 blocks) under the given
// runtime mode (mesh.Sim for the sequential simulated-parallel version,
// mesh.Par for the real parallel version) and returns the assembled
// result.
func RunArchetype(spec Spec, p int, mode mesh.Mode, opt Options) (*Result, error) {
	pr, err := plan(spec, p, 1, opt)
	if err != nil {
		return nil, err
	}
	return pr.exec(mode)
}

// RunArchetype2D executes the mesh-archetype build of the application
// on a px-by-py 2-D process grid (the x and y axes of the domain are
// block-distributed; z stays whole).  This is the archetype's one data
// distribution; RunArchetype is its py == 1 case.  Results are bitwise
// identical to the sequential program's near field; the far field is
// combined in the order of the px-by-py reduction.
func RunArchetype2D(spec Spec, px, py int, mode mesh.Mode, opt Options) (*Result, error) {
	pr, err := plan(spec, px, py, opt)
	if err != nil {
		return nil, err
	}
	return pr.exec(mode)
}

// RunArchetypeWorker executes one rank of the archetype application in
// this process, with the other ranks reached through tr (typically
// channel.DialMesh in a -procs worker).  The returned Result carries
// the assembled global fields only on rank 0; every rank gets the
// probe series and reductions.  By Theorem 1 all of it is bitwise
// identical to the same rank's slice of a RunArchetype run.
func RunArchetypeWorker(spec Spec, rank int, tr channel.Transport[mesh.Msg], opt Options) (*Result, error) {
	pr, err := plan(spec, tr.P(), 1, opt)
	if err != nil {
		return nil, err
	}
	return mesh.RunWorker(rank, tr, opt.Mesh, pr.rank)
}

// SPMD admits spec on p processes exactly as RunArchetype does and
// returns the per-process body of the archetype program, so that
// experiment harnesses can execute it under arbitrary scheduling
// policies (the determinacy experiment E4).  RunArchetype wires the
// same body to the standard Sim and Par runtimes.
func SPMD(spec Spec, p int, opt Options) (func(c *mesh.Comm) *Result, error) {
	pr, err := plan(spec, p, 1, opt)
	if err != nil {
		return nil, err
	}
	return pr.rank, nil
}
