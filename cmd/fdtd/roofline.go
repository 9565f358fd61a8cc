package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/fdtd"
	"repro/internal/machine"
)

// Roofline probe sizing: three 8M-element float64 arrays (192 MB
// total) dwarf any last-level cache, and the best of five passes is
// the usual STREAM discipline.  Each kernel point is timed for at
// least 150 ms, enough for thousands of bench-grid steps.
const (
	streamElems   = 8 << 20
	streamIters   = 5
	kernelMinTime = 150 * time.Millisecond
)

// parseWorkers parses the -roofline-workers list ("1,2,4").
func parseWorkers(list string) ([]int, error) {
	var ws []int
	for _, tok := range strings.Split(list, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		w, err := strconv.Atoi(tok)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("bad worker count %q (want positive integers, comma-separated)", tok)
		}
		ws = append(ws, w)
	}
	if len(ws) == 0 {
		return nil, fmt.Errorf("empty worker-count list")
	}
	return ws, nil
}

// runRoofline measures the achieved cells/sec of both kernel variants
// (the fused pencil kernels and the per-cell reference kernels) at
// each tile-worker count, against the memory-bandwidth bound implied
// by a stream-triad probe: bound = measured B/s / KernelBytesPerCell.
// It prints the achieved-vs-bound table.
func runRoofline(spec fdtd.Spec, workers []int, quiet bool) {
	if !quiet {
		fmt.Printf("roofline: grid %dx%dx%d, stream probe %d elements x3...\n",
			spec.NX, spec.NY, spec.NZ, streamElems)
	}
	probe := machine.StreamTriad(streamElems, streamIters)
	bound := probe.BytesPerSec / fdtd.KernelBytesPerCell
	if !quiet {
		fmt.Printf("%s\nmemory-bound ceiling: %.1f Mcells/s (%d B/cell-step)\n",
			probe, bound/1e6, fdtd.KernelBytesPerCell)
	}
	for _, w := range workers {
		for _, v := range []fdtd.KernelVariant{fdtd.KernelPencil, fdtd.KernelReference} {
			r := fdtd.MeasureKernelRate(spec, v, w, kernelMinTime)
			if !quiet {
				fmt.Printf("  %s  (%4.1f%% of bound, %d steps)\n", r, 100*r.CellsPerSec/bound, r.Steps)
			}
		}
	}
}
