package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/channel"
	"repro/internal/fdtd"
	"repro/internal/machine"
	"repro/internal/mesh"
)

// parseSweep parses the -sweep process list ("1,2,4,8").
func parseSweep(list string) ([]int, error) {
	var ps []int
	for _, tok := range strings.Split(list, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		p, err := strconv.Atoi(tok)
		if err != nil || p <= 0 {
			return nil, fmt.Errorf("bad process count %q (want positive integers, comma-separated)", tok)
		}
		ps = append(ps, p)
	}
	if len(ps) == 0 {
		return nil, fmt.Errorf("empty process list")
	}
	return ps, nil
}

// sweepRow is one P's measurements.
type sweepRow struct {
	p         int
	parWall   time.Duration // in-process Par
	sockWall  time.Duration // loopback socket backend (when enabled)
	measuredX float64       // seqWall / parWall
	modelSunX float64       // machine-model speedup, Sun/Ethernet
	modelIBMX float64       // machine-model speedup, IBM SP
}

// runSweep measures the P-scaling of the parallel build: the sequential
// program (the same program and kernels on the trivial decomposition,
// so measured speedups divide like by like), then for each P an
// in-process Par run (and, with -backend socket, a loopback-socket
// run), each checked bitwise against the sequential fields.  Wall
// clocks are whatever this host
// gives — on a single hardware thread a CPU-bound solve cannot beat
// P=1 — so the table also reports the paper's machine-model speedups,
// which are deterministic functions of the measured message/work profile
// and capture what the decomposition buys on the modelled machines.
func runSweep(spec fdtd.Spec, list, backend, network string, compensated, quiet bool) error {
	ps, err := parseSweep(list)
	if err != nil {
		return fmt.Errorf("-sweep: %w", err)
	}
	// Unmeasured warmup so the measured reference doesn't pay first-run
	// costs (page faults, pool population) that the later runs skip.
	if _, err := fdtd.RunSequentialOpts(spec, compensated); err != nil {
		return err
	}
	start := time.Now()
	seq, err := fdtd.RunSequentialOpts(spec, compensated)
	if err != nil {
		return err
	}
	seqWall := time.Since(start)

	sun, ibm := machine.SunEthernet(), machine.IBMSP()
	rows := make([]sweepRow, 0, len(ps))
	for _, p := range ps {
		if p > spec.NX {
			return fmt.Errorf("-sweep: cannot split %d x-planes over %d processes", spec.NX, p)
		}
		row := sweepRow{p: p}
		prof := machine.NewProfile(p)
		opt := fdtd.DefaultOptions()
		opt.FarFieldCompensated = compensated
		opt.Mesh.Profile = prof
		start = time.Now()
		res, err := fdtd.RunArchetype(spec, p, mesh.Par, opt)
		if err != nil {
			return fmt.Errorf("P=%d par: %w", p, err)
		}
		row.parWall = time.Since(start)
		if !seq.NearFieldEqual(res) {
			return fmt.Errorf("P=%d par: near field differs from sequential", p)
		}
		row.measuredX = machine.Speedup(seqWall.Seconds(), row.parWall.Seconds())
		row.modelSunX = machine.Speedup(sun.SequentialTime(prof), sun.Time(prof))
		row.modelIBMX = machine.Speedup(ibm.SequentialTime(prof), ibm.Time(prof))

		if backend == "socket" {
			tr, err := channel.NewLoopbackMesh(p, network, mesh.WireCodec(), channel.SocketOptions{})
			if err != nil {
				return fmt.Errorf("P=%d socket: %w", p, err)
			}
			sockOpt := fdtd.DefaultOptions()
			sockOpt.FarFieldCompensated = compensated
			sockOpt.Mesh.Transport = tr
			start = time.Now()
			sres, err := fdtd.RunArchetype(spec, p, mesh.Par, sockOpt)
			row.sockWall = time.Since(start)
			tr.Close()
			if err != nil {
				return fmt.Errorf("P=%d socket: %w", p, err)
			}
			if !seq.NearFieldEqual(sres) {
				return fmt.Errorf("P=%d socket: near field differs from sequential", p)
			}
		}
		rows = append(rows, row)
	}

	if !quiet {
		fmt.Printf("scaling sweep: grid %dx%dx%d steps=%d, sequential %.3fs (fields bitwise-checked at every P)\n",
			spec.NX, spec.NY, spec.NZ, spec.Steps, seqWall.Seconds())
		header := "   P   par wall   measured x   model Sun x   model IBM-SP x"
		if backend == "socket" {
			header += "   socket wall"
		}
		fmt.Println(header)
		for _, r := range rows {
			line := fmt.Sprintf("%4d %9.3fs %12.2f %13.2f %16.2f",
				r.p, r.parWall.Seconds(), r.measuredX, r.modelSunX, r.modelIBMX)
			if backend == "socket" {
				line += fmt.Sprintf(" %12.3fs", r.sockWall.Seconds())
			}
			fmt.Println(line)
		}
		reportCrossover(rows)
	}
	return nil
}

// reportCrossover prints the first P (if any) where each speedup
// measure exceeds 1 — the sweep's headline.
func reportCrossover(rows []sweepRow) {
	firstOver := func(get func(sweepRow) float64) int {
		for _, r := range rows {
			if r.p > 1 && get(r) > 1 {
				return r.p
			}
		}
		return 0
	}
	if p := firstOver(func(r sweepRow) float64 { return r.measuredX }); p > 0 {
		fmt.Printf("crossover: measured speedup exceeds 1 from P=%d\n", p)
	} else {
		fmt.Println("crossover: measured speedup never exceeds 1 on this host (expected on a single hardware thread)")
	}
	if p := firstOver(func(r sweepRow) float64 { return r.modelSunX }); p > 0 {
		fmt.Printf("crossover: modelled (Sun/Ethernet) speedup exceeds 1 from P=%d\n", p)
	}
	if p := firstOver(func(r sweepRow) float64 { return r.modelIBMX }); p > 0 {
		fmt.Printf("crossover: modelled (IBM SP) speedup exceeds 1 from P=%d\n", p)
	}
}
