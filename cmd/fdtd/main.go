// Command fdtd runs the electromagnetics application directly.
//
// Usage:
//
//	fdtd -version C -build seq              original sequential program
//	fdtd -version A -build ssp -p 4         simulated-parallel, 4 processes
//	fdtd -version C -build par -p 8         message-passing parallel
//	fdtd -nx 48 -ny 48 -nz 48 -steps 256    custom grid
//
// It prints a run summary, the probe series extrema, and (Version C)
// the peak far-field potentials, plus the work/message profile when a
// parallel build is selected.
//
// Fault tolerance (par build): -checkpoint-every N saves a hardened
// checkpoint every N steps under crash recovery, -resume restarts from
// the checkpoint file, and -inject-crash rank@step kills a rank
// mid-run to demonstrate recovery:
//
//	fdtd -build par -p 4 -checkpoint-every 50 -checkpoint run.ckp \
//	     -inject-crash 1@120
//
// Observability (ssp/par builds): -report writes a structured run
// report (wall time, per-phase breakdown, load imbalance,
// comm-to-compute ratio) and prints its table; -trace-out writes a
// Chrome trace (open in chrome://tracing or https://ui.perfetto.dev)
// with one lane per rank; -metrics-addr serves live Prometheus
// /metrics plus expvar and pprof while the run executes; -quiet
// suppresses the human-readable output:
//
//	fdtd -build par -p 4 -report report.json -trace-out trace.json \
//	     -metrics-addr :9090
//
// Scale-out transport (par build): -backend socket carries the
// channels over a real loopback socket mesh (-net tcp|unix) inside one
// process; -procs N runs N separate OS processes connected by sockets
// (one rank each, spawned and supervised by this launcher).  Both
// produce bitwise-identical physics (Theorem 1):
//
//	fdtd -build par -p 4 -backend socket -net unix
//	fdtd -build par -procs 2 -dump ez.grid
//
// Each invocation runs one solve.  The speedup table over P, modelled
// and measured, is `archexp -exp table1|figure2`; -roofline prints a
// kernel table for a reader; the repository's measuring instrument is
// `bash benchmark/run.sh` (BENCHMARK.json), whose numbers are quoted
// by workload/metric name.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/channel"
	"repro/internal/fault"
	"repro/internal/fdtd"
	"repro/internal/gridio"
	"repro/internal/machine"
	"repro/internal/mesh"
	"repro/internal/obs"
)

// parseCrash parses "rank@step" for -inject-crash.
func parseCrash(s string) (*fault.Injector, error) {
	var rank, step int
	if _, err := fmt.Sscanf(s, "%d@%d", &rank, &step); err != nil {
		return nil, fmt.Errorf("want rank@step, got %q", s)
	}
	if rank < 0 || step < 0 {
		return nil, fmt.Errorf("rank and step must be non-negative in %q", s)
	}
	return fault.NewCrash(rank, step), nil
}

// usageErr reports a flag-validation failure and exits with status 2
// (matching flag package convention for usage errors).
func usageErr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "fdtd: "+format+"\n", args...)
	os.Exit(2)
}

func main() {
	version := flag.String("version", "C", "application version: A (near field) or C (near + far field)")
	build := flag.String("build", "seq", "build to run: seq | ssp | par")
	p := flag.Int("p", 4, "process count for ssp/par builds (x-axis split)")
	py := flag.Int("py", 1, "y-axis process count: the ssp/par builds run on p x py blocks")
	nx := flag.Int("nx", 33, "grid extent x")
	ny := flag.Int("ny", 33, "grid extent y")
	nz := flag.Int("nz", 33, "grid extent z")
	steps := flag.Int("steps", 128, "time steps")
	compensated := flag.Bool("compensated", false, "use the compensated (fixed) far field")
	boundary := flag.String("boundary", "pec", "outer boundary: pec | mur1")
	dump := flag.String("dump", "", "write the final Ez field to this file (gridio format)")
	ckEvery := flag.Int("checkpoint-every", 0, "par build: checkpoint every N steps under crash recovery (0 = off)")
	ckPath := flag.String("checkpoint", "fdtd.ckp", "checkpoint file path (with -checkpoint-every or -resume)")
	resume := flag.Bool("resume", false, "par build: resume from the checkpoint file (implies recovery)")
	injectCrash := flag.String("inject-crash", "", "par build: crash rank@step once, to be absorbed by recovery")
	report := flag.String("report", "", "ssp/par builds: write the structured run report (JSON) to this file")
	traceOut := flag.String("trace-out", "", "ssp/par builds: write a Chrome trace_event timeline (JSON) to this file")
	metricsAddr := flag.String("metrics-addr", "", "ssp/par builds: serve Prometheus /metrics (+expvar, pprof) on this address during the run")
	quiet := flag.Bool("quiet", false, "suppress the human-readable run summary (artifacts are still written)")
	backend := flag.String("backend", "inproc", "par build channel backend: inproc | socket (loopback socket mesh)")
	netKind := flag.String("net", "tcp", "socket network for -backend socket and -procs: tcp | unix")
	procsN := flag.Int("procs", 0, "par build: run across N OS processes connected by sockets")
	roofline := flag.Bool("roofline", false, "measure kernel cells/sec per worker count against a stream-triad memory bound, then exit")
	rooflineWorkers := flag.String("roofline-workers", "1,2,4", "comma-separated tile-worker counts for -roofline")
	workerRank := flag.Int("worker-rank", -1, "internal: run as one rank worker of a -procs launch")
	workerDir := flag.String("worker-dir", "", "internal: run directory of the -procs launch")
	flag.Parse()

	// Worker mode: this process is one rank of a -procs run.  Everything
	// it needs arrives via the run directory, not the other flags.
	if *workerRank >= 0 || *workerDir != "" {
		if *workerRank < 0 || *workerDir == "" {
			usageErr("-worker-rank and -worker-dir are internal flags of -procs and are set together")
		}
		runWorkerProcess(*workerRank, *workerDir)
		return
	}

	// Reject conflicting flag combinations up front, before any work.
	obsWanted := *report != "" || *traceOut != "" || *metricsAddr != ""
	if flag.NArg() > 0 {
		usageErr("unexpected arguments: %v", flag.Args())
	}
	if *build != "ssp" && *build != "par" && *build != "seq" {
		usageErr("unknown build %q (want seq, ssp, or par)", *build)
	}
	if *roofline {
		if *procsN > 0 || *ckEvery > 0 || *resume || *injectCrash != "" ||
			*dump != "" || obsWanted {
			usageErr("-roofline is a self-contained measurement; combine it only with the grid flags, -roofline-workers, and -quiet")
		}
	}
	if *build == "seq" && obsWanted {
		usageErr("-report/-trace-out/-metrics-addr instrument the archetype runtime; they require -build ssp or par")
	}
	if *injectCrash != "" && *build != "par" {
		usageErr("-inject-crash requires -build par (crash recovery runs on the parallel build)")
	}
	if (*resume || *ckEvery > 0) && *build != "par" {
		usageErr("-resume and -checkpoint-every require -build par")
	}
	recovery := *ckEvery > 0 || *resume
	if *netKind != "tcp" && *netKind != "unix" {
		usageErr("unknown -net %q (want tcp or unix)", *netKind)
	}
	if *backend != "inproc" && *backend != "socket" {
		usageErr("unknown -backend %q (want inproc or socket)", *backend)
	}
	if *backend == "socket" {
		if *build != "par" {
			usageErr("-backend socket requires -build par (the socket mesh carries real parallel channels)")
		}
		if *py > 1 {
			usageErr("-backend socket supports p x 1 blocks only (py=1)")
		}
		if recovery || *injectCrash != "" {
			usageErr("-backend socket does not compose with crash recovery or -inject-crash")
		}
	}
	if *procsN > 0 {
		if *build != "par" {
			usageErr("-procs requires -build par")
		}
		if *py > 1 {
			usageErr("-procs supports p x 1 blocks only (py=1)")
		}
		if *backend != "inproc" {
			usageErr("-procs already runs over sockets; it does not combine with -backend")
		}
		if recovery || *injectCrash != "" {
			usageErr("-procs does not compose with crash recovery or -inject-crash")
		}
		if obsWanted {
			usageErr("-report/-trace-out/-metrics-addr require an in-process backend; -procs supports -dump")
		}
	}
	if *resume {
		if *ckPath == "" {
			usageErr("-resume requires a checkpoint file path (-checkpoint)")
		}
		_, errA := os.Stat(*ckPath)
		_, errB := os.Stat(fdtd.CheckpointPrevPath(*ckPath))
		if errA != nil && errB != nil {
			usageErr("-resume: no checkpoint at %s (or retained %s)", *ckPath, fdtd.CheckpointPrevPath(*ckPath))
		}
	}

	spec := fdtd.SpecTable1()
	spec.NX, spec.NY, spec.NZ, spec.Steps = *nx, *ny, *nz, *steps
	spec.Source.I, spec.Source.J, spec.Source.K = *nx/2, *ny/2, *nz/2
	spec.Probe = [3]int{*nx/2 + *nx/8, *ny / 2, *nz / 2}
	if *version == "A" {
		spec.FarField = nil
	}
	switch *boundary {
	case "pec":
		spec.Boundary = fdtd.BoundaryPEC
	case "mur1":
		spec.Boundary = fdtd.BoundaryMur1
	default:
		usageErr("unknown boundary %q", *boundary)
	}
	if err := spec.Validate(); err != nil {
		usageErr("%v", err)
	}

	opt := fdtd.DefaultOptions()
	opt.FarFieldCompensated = *compensated
	if *injectCrash != "" {
		inj, err := parseCrash(*injectCrash)
		if err != nil {
			usageErr("-inject-crash: %v", err)
		}
		opt.Inject = inj
	}
	// Self-contained run modes: the roofline report and the
	// multi-process launcher do their own measurement and reporting.
	if *roofline {
		ws, err := parseWorkers(*rooflineWorkers)
		if err != nil {
			usageErr("-roofline-workers: %v", err)
		}
		runRoofline(spec, ws, *quiet)
		return
	}
	if *procsN > 0 {
		res, wall, err := runProcs(spec, *procsN, *netKind, *compensated, *dump != "")
		if err != nil {
			fmt.Fprintf(os.Stderr, "fdtd: %v\n", err)
			os.Exit(1)
		}
		if !*quiet {
			fmt.Printf("%s\nbuild=par procs=%d wall=%v\n", res, *procsN, wall)
		}
		if *dump != "" {
			if err := gridio.SaveFile3(*dump, res.Ez); err != nil {
				fmt.Fprintf(os.Stderr, "fdtd: dump: %v\n", err)
				os.Exit(1)
			}
			if !*quiet {
				fmt.Printf("final Ez written to %s\n", *dump)
			}
		}
		return
	}

	ranks := *p * *py
	var prof *machine.Profile
	var col *obs.Collector
	var stats *channel.NetStats
	if obsWanted {
		col = obs.New(ranks)
		opt.Mesh.Obs = col
		if *build == "par" {
			stats = channel.NewNetStats(ranks)
			opt.Mesh.ChanStats = stats
		}
	}
	if *metricsAddr != "" {
		srv, addr, err := obs.Serve(*metricsAddr, obs.Exporter{Collector: col, Net: stats})
		if err != nil {
			fmt.Fprintf(os.Stderr, "fdtd: -metrics-addr: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		if !*quiet {
			fmt.Printf("serving metrics at http://%s/metrics (expvar at /debug/vars, pprof at /debug/pprof/)\n", addr)
		}
	}

	// The loopback socket mesh is dialed before the clock starts:
	// dial/accept of the long-lived transport is connection setup, not
	// stepping.
	if *backend == "socket" && (*build == "ssp" || *build == "par") && !recovery {
		tr, terr := channel.NewLoopbackMesh(ranks, *netKind, mesh.WireCodec(), channel.SocketOptions{Stats: stats})
		if terr != nil {
			fmt.Fprintf(os.Stderr, "fdtd: socket mesh: %v\n", terr)
			os.Exit(1)
		}
		defer tr.Close()
		opt.Mesh.Transport = tr
	}

	start := time.Now()
	var res *fdtd.Result
	var err error
	switch {
	case *build == "seq":
		res, err = fdtd.RunSequentialOpts(spec, *compensated)
	case *build == "par" && recovery:
		if *py > 1 {
			usageErr("crash recovery supports p x 1 blocks only (py=1)")
		}
		var rep *fdtd.RecoveryReport
		rep, err = fdtd.RunWithRecovery(spec, fdtd.RecoveryOptions{
			P: *p, Opt: opt,
			CheckpointEvery: *ckEvery,
			Path:            *ckPath,
			Resume:          *resume,
		})
		if err == nil {
			res = rep.Result
			if !*quiet {
				if rep.ResumedFrom > 0 {
					fmt.Printf("resumed from step %d (%s)\n", rep.ResumedFrom, *ckPath)
				}
				for _, c := range rep.Crashes {
					fmt.Printf("absorbed injected crash: rank %d at step %d\n", c.Rank, c.Step)
				}
				if rep.FellBack {
					fmt.Println("fell back to the retained previous checkpoint")
				}
				fmt.Printf("recovery: %d restarts, %d checkpoints saved\n",
					rep.Restarts, rep.CheckpointsSaved)
			}
		}
	case *build == "ssp" || *build == "par":
		mode := mesh.Sim
		if *build == "par" {
			mode = mesh.Par
		}
		prof = machine.NewProfile(ranks)
		opt.Mesh.Profile = prof
		res, err = fdtd.RunArchetype2D(spec, *p, *py, mode, opt)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "fdtd: %v\n", err)
		os.Exit(1)
	}
	col.Finish()
	wall := time.Since(start)

	if !*quiet {
		fmt.Printf("%s\nbuild=%s wall=%v\n", res, *build, wall)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range res.Probe {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		fmt.Printf("probe Ez range: [%.6g, %.6g] over %d steps\n", lo, hi, len(res.Probe))
		if spec.IsVersionC() {
			peakA, peakF := 0.0, 0.0
			for _, v := range res.FarA {
				if a := math.Abs(v); a > peakA {
					peakA = a
				}
			}
			for _, v := range res.FarF {
				if a := math.Abs(v); a > peakF {
					peakF = a
				}
			}
			fmt.Printf("far-field potentials: |A|max=%.6g |F|max=%.6g (%d samples)\n",
				peakA, peakF, len(res.FarA))
		}
	}
	if *dump != "" {
		if err := gridio.SaveFile3(*dump, res.Ez); err != nil {
			fmt.Fprintf(os.Stderr, "fdtd: dump: %v\n", err)
			os.Exit(1)
		}
		if !*quiet {
			fmt.Printf("final Ez written to %s\n", *dump)
		}
	}
	if prof != nil && !*quiet {
		tot := prof.Totals()
		fmt.Printf("profile: %d messages, %.2f MB, %d phases\n",
			tot.Messages, float64(tot.Bytes)/1e6, tot.Phases)
		for _, m := range []machine.Model{machine.SunEthernet(), machine.IBMSP()} {
			simT := m.Time(prof)
			seqT := m.SequentialTime(prof)
			fmt.Printf("  %-40s simulated %8.3f s (speedup %.2f on %d procs)\n",
				m.Name, simT, machine.Speedup(seqT, simT), ranks)
		}
	}

	if col == nil {
		return
	}

	title := fmt.Sprintf("fdtd version=%s build=%s P=%d grid=%dx%dx%d steps=%d",
		*version, *build, ranks, *nx, *ny, *nz, *steps)
	runRep := obs.BuildReport(title, col.Snapshot())
	if !*quiet {
		fmt.Print(runRep.Format())
	}
	if *report != "" {
		if err := runRep.WriteJSONFile(*report); err != nil {
			fmt.Fprintf(os.Stderr, "fdtd: %v\n", err)
			os.Exit(1)
		}
		if !*quiet {
			fmt.Printf("run report written to %s\n", *report)
		}
	}
	if *traceOut != "" {
		if err := obs.WriteChromeTraceFile(*traceOut, col); err != nil {
			fmt.Fprintf(os.Stderr, "fdtd: %v\n", err)
			os.Exit(1)
		}
		if !*quiet {
			fmt.Printf("chrome trace written to %s\n", *traceOut)
		}
	}
}
