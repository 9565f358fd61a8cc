package archetype

import (
	"repro/internal/explore"
	"repro/internal/farm"
	"repro/internal/fdtd"
	"repro/internal/grid"
	"repro/internal/gridio"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/mesh"
	"repro/internal/sched"
	"repro/internal/ssp"
	"repro/internal/wave2d"
)

// Mesh archetype runtime.
type (
	// Comm is a process's handle to the mesh archetype's communication
	// library (boundary exchange, reductions, broadcast, host I/O
	// redistribution).
	Comm = mesh.Comm
	// MeshOptions configures a mesh run (message combining, reduction
	// algorithm, performance profile).
	MeshOptions = mesh.Options
	// Mode selects the simulated-parallel or parallel runtime.
	Mode = mesh.Mode
	// ReduceOp is a reduction combining operation.
	ReduceOp = mesh.ReduceOp
	// ReduceAlg selects a reduction algorithm.
	ReduceAlg = mesh.ReduceAlg
)

// Runtime modes and reduction configuration re-exported from mesh.
const (
	// Sim executes an SPMD program as a sequential simulated-parallel
	// program: one simulated process at a time, deterministically.
	Sim = mesh.Sim
	// Par executes an SPMD program with one goroutine per process.
	Par = mesh.Par
	// RecursiveDoubling is the butterfly reduction algorithm.
	RecursiveDoubling = mesh.RecursiveDoubling
	// AllToOne is the gather-to-root-then-broadcast reduction.
	AllToOne = mesh.AllToOne
)

// Reduction operations re-exported from mesh.
var (
	// OpSum adds partial results.
	OpSum = mesh.OpSum
	// OpMax takes the maximum of partial results.
	OpMax = mesh.OpMax
	// OpMin takes the minimum of partial results.
	OpMin = mesh.OpMin
)

// Supervised-execution error contract: RunMesh (Par mode) never hangs
// on a sick network; it returns a classifiable error instead.
type (
	// DeadlockError reports an exactly-detected deadlock (or watchdog
	// stall), naming every blocked rank and the empty channel it waits
	// on.  Retrieve it with errors.As.
	DeadlockError = sched.DeadlockError
)

// Sentinels for errors.Is classification of supervised-run failures.
var (
	// ErrDeadlock classifies exactly-detected deadlocks.
	ErrDeadlock = sched.ErrDeadlock
	// ErrStall classifies stall-watchdog aborts (sched.Options.StallTimeout).
	ErrStall = sched.ErrStall
)

// DefaultMeshOptions returns the archetype defaults: combined messages
// and recursive-doubling reductions.
func DefaultMeshOptions() MeshOptions { return mesh.DefaultOptions() }

// RunMesh executes an SPMD function on p processes under the given
// runtime mode and returns the per-process results.
func RunMesh[R any](p int, mode Mode, opt MeshOptions, f func(c *Comm) R) ([]R, error) {
	return mesh.Run(p, mode, opt, f)
}

// Grids and decomposition.
type (
	// G3 is the dense grid with ghost boundaries; a 2-D grid is one
	// cell deep in z.
	G3 = grid.G3
	// Slab is one process's share of a 1-D block decomposition.
	Slab = grid.Slab
	// Range is a half-open interval of global grid indices.
	Range = grid.Range
	// Topo2D is the archetype's block distribution: px-by-py processes
	// owning contiguous blocks of an nx-by-ny grid (px x 1 is x-slabs).
	Topo2D = mesh.Topo2D
)

// AxisX names the x axis of a grid, the split axis of a p x 1 chain.
const AxisX = grid.AxisX

// Grid constructors and decompositions re-exported from grid.
var (
	// NewGrid3 allocates a 3-D grid with uniform ghosts.
	NewGrid3 = grid.New3
	// Decompose splits n points into p balanced contiguous blocks.
	Decompose = grid.Decompose
	// SlabDecompose3 splits a 3-D grid into slabs along one axis.
	SlabDecompose3 = grid.SlabDecompose3
	// NewTopo2D distributes an nx-by-ny grid over px-by-py processes.
	NewTopo2D = mesh.NewTopo2D
)

// The FDTD application.
type (
	// FDTDSpec describes an FDTD run (Version A or C).
	FDTDSpec = fdtd.Spec
	// FDTDResult is the observable outcome of an FDTD run.
	FDTDResult = fdtd.Result
	// FDTDOptions configures the archetype builds of the application.
	FDTDOptions = fdtd.Options
)

// FDTD entry points and presets re-exported from fdtd.
var (
	// RunFDTDSequential runs the original sequential program.
	RunFDTDSequential = fdtd.RunSequential
	// RunFDTDArchetype runs the mesh-archetype build (Sim or Par) on
	// p x 1 blocks (x-slabs).
	RunFDTDArchetype = fdtd.RunArchetype
	// RunFDTDArchetype2D runs it on px-by-py blocks.
	RunFDTDArchetype2D = fdtd.RunArchetype2D
	// DefaultFDTDOptions returns the paper's experimental configuration.
	DefaultFDTDOptions = fdtd.DefaultOptions
	// SpecTable1 is the paper's Table 1 workload.
	SpecTable1 = fdtd.SpecTable1
	// SpecFigure2 is the paper's Figure 2 workload.
	SpecFigure2 = fdtd.SpecFigure2
)

// Methodology: determinacy checking.
type (
	// Policy chooses the next process at each scheduling point of a
	// controlled interleaving.
	Policy = sched.Policy
)

// CheckDeterminacy checks Theorem 1 for a process network by exploring
// its reduced schedule space (see internal/explore).
func CheckDeterminacy[T, R any](mk func() []sched.Proc[T, R], opt explore.Options[R]) (*explore.Report, error) {
	return explore.Run(mk, opt)
}

// SSP program model.
type (
	// SSPProgram is a sequential simulated-parallel program.
	SSPProgram = ssp.Program
	// SSPSpace is one simulated process's address space.
	SSPSpace = ssp.Space
)

// Machine models.
type (
	// MachineModel converts recorded work/message profiles into
	// simulated execution times.
	MachineModel = machine.Model
	// Profile records a parallel run's work, messages and phases for
	// the machine model (MachineModel.Time, Breakdown and DES).
	Profile = machine.Profile
)

// Machine presets and profiling re-exported from machine.
var (
	// SunEthernet models the paper's network of Sun workstations.
	SunEthernet = machine.SunEthernet
	// IBMSP models the paper's IBM SP.
	IBMSP = machine.IBMSP
	// NewProfile creates a profile recorder for p processes.
	NewProfile = machine.NewProfile
)

// Second application and second archetype.
type (
	// Wave2DSpec describes a 2-D TMz FDTD run.
	Wave2DSpec = wave2d.Spec
	// Wave2DResult is its observable outcome.
	Wave2DResult = wave2d.Result
	// FarmSchedule selects a deterministic task-to-process assignment.
	FarmSchedule = farm.Schedule
	// FarmOptions configures a task-farm run.
	FarmOptions = farm.Options
)

// Second application and archetype entry points.
var (
	// RunWave2DSequential runs the 2-D solver sequentially.
	RunWave2DSequential = wave2d.RunSequential
	// RunWave2DArchetype runs it on a 2-D process grid.
	RunWave2DArchetype = wave2d.RunArchetype
	// DefaultFarmOptions returns cyclic scheduling with combining.
	DefaultFarmOptions = farm.DefaultOptions
)

// FarmMap applies f to every task index in [0, n) on p processes and
// returns the results indexed by task (the task-farm archetype).
func FarmMap[R any](n, p int, mode farm.Mode, opt farm.Options, f func(task int) R) ([]R, error) {
	return farm.Map(n, p, mode, opt, f)
}

// Grid file I/O (the archetype's file-I/O substrate).
var (
	// SaveGrid3 writes a 3-D grid to a file.
	SaveGrid3 = gridio.SaveFile3
	// LoadGrid3 reads a 3-D grid from a file.
	LoadGrid3 = gridio.LoadFile3
)

// Automatic transformation of 1-D stencil programs (ssp.Stencil1D).
type Stencil1D = ssp.Stencil1D

// Experiments.
var (
	// RunFigure1 demonstrates the Figure 1 correspondence.
	RunFigure1 = harness.RunFigure1
	// RunEffort produces the ease-of-use proxy table.
	RunEffort = harness.RunEffort
)
