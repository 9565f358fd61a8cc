// Package archetype is a Go reproduction of Berna L. Massingill's
// "Experiments with Program Parallelization Using Archetypes and
// Stepwise Refinement" (IPPS 1998).
//
// The library implements the paper's methodology and all of its
// substrates from scratch:
//
//   - a parallel program model of deterministic processes communicating
//     over single-reader single-writer channels with infinite slack
//     (internal/channel, internal/sched), with an interleaving-
//     controlled scheduler on which Theorem 1 — all maximal
//     interleavings reach the same final state — is checked by
//     systematic schedule exploration (internal/explore);
//   - the sequential simulated-parallel (SSP) program model with
//     validators for the paper's three data-exchange restrictions and
//     the mechanical SSP-to-parallel transformation (internal/ssp);
//   - the refinement-pipeline methodology (internal/core);
//   - the mesh archetype: ghost-boundary exchange, reductions
//     (recursive doubling and all-to-one), broadcast, and host/grid
//     redistribution, over interchangeable simulated-parallel and
//     real-parallel runtimes (internal/mesh, internal/grid);
//   - the FDTD electromagnetics application of the paper's experiments,
//     Versions A (near field) and C (near + far field), in sequential,
//     simulated-parallel, and parallel builds (internal/fdtd);
//   - floating-point summation analysis reproducing the far-field
//     non-associativity finding (internal/fsum);
//   - a machine performance model standing in for the paper's
//     network-of-Suns and IBM SP testbeds (internal/machine); and
//   - the experiment harness that regenerates every table and figure
//     (internal/harness).
//
// This package re-exports the user-facing API; see README.md for a
// quickstart and EXPERIMENTS.md for the paper-versus-measured record.
package archetype
