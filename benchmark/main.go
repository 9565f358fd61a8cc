// Command benchmark is the repository's measuring instrument: four
// named workloads, end-to-end metrics from an untraced pass, per-layer
// metrics and a time budget from a traced pass, every output checked
// bit for bit against an oracle.  BENCHMARK.json at the repository root
// declares the workloads, metrics, units and bounds; README.md beside
// this file says what each is for.
//
// It runs from this directory (run.sh does that):
//
//	bash benchmark/run.sh -seed 1                       all workloads, both passes
//	bash benchmark/run.sh --workload jobs-zipf --seed 7 --seconds 10 --trace 0
//	bash benchmark/run.sh -selfcheck                    A/A repeatability
//	bash benchmark/run.sh -layers                       standalone layer microbenches only
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// contractFile is BENCHMARK.json, relative to this directory.
const contractFile = "../BENCHMARK.json"

// decl is one metric as BENCHMARK.json declares it.
type decl struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

// contract is BENCHMARK.json: the one place that names the workloads,
// the metrics, their units and their bounds.
type contract struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []decl `json:"end_to_end"`
	PerLayer []decl `json:"per_layer"`
}

func loadContract() (*contract, error) {
	raw, err := os.ReadFile(contractFile)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", contractFile, err)
	}
	return &c, nil
}

// conform orders a run's metrics as declared.  A measured metric must
// be declared with the unit it was measured in; a declared per-layer
// metric the workload does not exercise reads 0 (the layer was idle); a
// missing end-to-end metric is an error.
func conform(got metrics, decls []decl, idleIsZero bool) (metrics, error) {
	out := make(metrics, 0, len(decls))
	for _, d := range decls {
		m, ok := got.get(d.Name)
		switch {
		case ok && m.Unit != d.Unit:
			return nil, fmt.Errorf("metric %s measured in %q, declared in %q", d.Name, m.Unit, d.Unit)
		case !ok && !idleIsZero:
			return nil, fmt.Errorf("metric %s declared but not measured", d.Name)
		case !ok:
			m = metric{Name: d.Name, Unit: d.Unit}
		}
		out = append(out, m)
	}
	for _, m := range got {
		if _, ok := out.get(m.Name); !ok {
			return nil, fmt.Errorf("metric %s measured but not declared in %s", m.Name, contractFile)
		}
	}
	return out, nil
}

// runOne runs one pass of one workload and conforms its metrics.
func runOne(c *contract, w workload, cfg runConfig) (*result, error) {
	if cfg.traced {
		cfg.trace = newTracer()
	}
	res, err := w.run(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	decls := c.EndToEnd
	if cfg.traced {
		decls = c.PerLayer
	}
	if res.Metrics, err = conform(res.Metrics, decls, cfg.traced); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res.Workload, res.trace = w.name, cfg.trace
	return res, nil
}

// host is the machine and build the numbers belong to.  The benchmark
// records these and never sets them.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOAMD64    string `json:"goamd64,omitempty"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func hostFacts() host {
	h := host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		Commit:     "unknown",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "GOAMD64":
				h.GOAMD64 = s.Value
			case "vcs.revision":
				h.Commit = s.Value
			}
		}
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// report is benchmark/out/result.json.
type report struct {
	Host    host      `json:"host"`
	Seed    int64     `json:"seed"`
	Seconds float64   `json:"seconds"`
	Runs    []*result `json:"runs"`
}

func printResult(w io.Writer, r *result) {
	pass := "untraced"
	if r.Traced {
		pass = "traced"
	}
	fmt.Fprintf(w, "\n%s (%s): attempted %d, failed %d\n", r.Workload, pass, r.Attempted, r.Failed)
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "  %-30s %14.6g %-9s", m.Name, m.Value, m.Unit)
		if s := m.Sample; s != nil && s.N > 1 {
			fmt.Fprintf(w, " q1 %.6g  q3 %.6g  n %d", s.Q1, s.Q3, s.N)
		}
		fmt.Fprintln(w)
	}
	if len(r.Budget) == 0 {
		return
	}
	fmt.Fprintf(w, "  budget of %.6g s (parts miss the wall by %.2f%%):\n", r.BudgetWall, 100*r.TileError)
	for _, b := range r.Budget {
		fmt.Fprintf(w, "    %-28s %12.6g s  %5.1f%%\n", b.Part, b.Seconds, 100*b.Share)
	}
	self := r.trace.selfTimes()
	layers := make([]string, 0, len(self))
	for layer := range self {
		layers = append(layers, layer)
	}
	sort.Strings(layers)
	for _, layer := range layers {
		fmt.Fprintf(w, "    span self time %-13s %12.6g s\n", layer, self[layer].Seconds())
	}
}

// lastLine prints the one JSON object the driver reads.  With one run
// the metrics go by name; with several, by workload/metric.
func lastLine(w io.Writer, runs []*result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, r := range runs {
		out.Correct = out.Correct && r.correct()
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for _, m := range r.Metrics {
			name := m.Name
			if len(runs) > 1 {
				name = r.Workload + "/" + name
			}
			out.Metrics[name] = value{m.Value, m.Unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// selfcheck runs the untraced pass twice on the same code and holds the
// difference of the medians to each metric's bound; it runs the traced
// pass twice, briefly, and holds the per-operation counts to equality.
func selfcheck(w io.Writer, c *contract, picked []workload, cfg runConfig) (bool, error) {
	exact := []string{"fdtd.cell_updates", "mesh.messages", "mesh.bytes", "channel.wire_frames"}
	ok := true
	for _, wl := range picked {
		var e2e, layer [2]*result
		for i := range e2e {
			var err error
			cfg.traced = false
			if e2e[i], err = runOne(c, wl, cfg); err != nil {
				return false, err
			}
			short := cfg
			short.traced, short.seconds = true, cfg.seconds/4
			if layer[i], err = runOne(c, wl, short); err != nil {
				return false, err
			}
			ok = ok && e2e[i].correct() && layer[i].correct()
		}
		fmt.Fprintf(w, "\n%s\n", wl.name)
		for _, d := range c.EndToEnd {
			a, _ := e2e[0].Metrics.get(d.Name)
			b, _ := e2e[1].Metrics.get(d.Name)
			diff := ratio(abs(b.Value-a.Value), a.Value)
			verdict := "ok"
			if diff > d.Bound {
				verdict, ok = "EXCEEDS BOUND", false
			}
			fmt.Fprintf(w, "  %-12s A %12.6g  B %12.6g %-4s diff %6.2f%%  bound %5.1f%%  %s\n",
				d.Name, a.Value, b.Value, d.Unit, 100*diff, 100*d.Bound, verdict)
		}
		for _, name := range exact {
			a, _ := layer[0].Metrics.get(name)
			b, _ := layer[1].Metrics.get(name)
			verdict := "identical"
			if a.Value != b.Value {
				verdict, ok = "DIFFERS", false
			}
			fmt.Fprintf(w, "  %-22s A %14.0f  B %14.0f  %s\n", name, a.Value, b.Value, verdict)
		}
	}
	return ok, nil
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 0, "seconds one pass measures (default: run_seconds of BENCHMARK.json)")
	trace := fs.String("trace", "both", "0: untraced pass (end-to-end metrics); 1: traced pass (per-layer metrics); both")
	check := fs.Bool("selfcheck", false, "run every pass twice and compare the two against the bounds")
	layers := fs.Bool("layers", false, "run only the standalone layer microbenches")
	outDir := fs.String("out", "out", "directory for result.json and trace-<workload>.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	c, err := loadContract()
	if err != nil {
		return err
	}
	if *seconds <= 0 {
		*seconds = float64(c.RunSeconds)
	}
	var picked []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			picked = append(picked, w)
		}
	}
	if len(picked) == 0 {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *trace != "0" && *trace != "1" && *trace != "both" {
		return fmt.Errorf("-trace wants 0, 1 or both, got %q", *trace)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	if err := keepTempFilesIn(*outDir); err != nil {
		return err
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, sz: paperSizes()}
	rep := report{Host: hostFacts(), Seed: *seed, Seconds: *seconds}
	fmt.Fprintf(stdout, "host: %d cpus, GOMAXPROCS %d, %s %s, %s, commit %s\nseed %d, %g s per pass\n",
		rep.Host.NumCPU, rep.Host.GOMAXPROCS, rep.Host.GoVersion, rep.Host.GOAMD64, rep.Host.CPUModel, rep.Host.Commit, *seed, *seconds)

	if *layers {
		var m metrics
		if err := standaloneLayers(&m, cfg.sz, cfg.sz.fig2); err != nil {
			return err
		}
		printResult(stdout, &result{Workload: "layers", Traced: true, Metrics: m})
		return nil
	}
	if *check {
		ok, err := selfcheck(stdout, c, picked, cfg)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("selfcheck failed")
		}
		fmt.Fprintln(stdout, "\nselfcheck passed")
		return nil
	}

	// Every untraced pass comes before any traced one, so that no
	// end-to-end number is taken in a process that has traced.
	for _, traced := range []bool{false, true} {
		if (traced && *trace == "0") || (!traced && *trace == "1") {
			continue
		}
		for _, w := range picked {
			pass := cfg
			pass.traced = traced
			if traced && *trace == "both" {
				pass.seconds = cfg.seconds / 2
			}
			res, err := runOne(c, w, pass)
			if err != nil {
				return err
			}
			printResult(stdout, res)
			if err := res.trace.write(*outDir, w.name); err != nil {
				return err
			}
			rep.Runs = append(rep.Runs, res)
		}
	}
	body, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(*outDir, "result.json"), body, 0o644); err != nil {
		return err
	}
	if err := lastLine(stdout, rep.Runs); err != nil {
		return err
	}
	for _, r := range rep.Runs {
		if !r.correct() {
			return fmt.Errorf("%s: %d of %d operations failed the check", r.Workload, r.Failed, r.Attempted)
		}
	}
	return nil
}

// keepTempFilesIn points the process's temporary directory at dir/tmp,
// so that the unix sockets of the loopback meshes live inside the
// checkout.  A socket path holds about a hundred bytes; a checkout too
// deep for that keeps the system default.
func keepTempFilesIn(dir string) error {
	tmp, err := filepath.Abs(filepath.Join(dir, "tmp"))
	if err != nil {
		return err
	}
	if len(tmp) > 60 {
		return nil
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	return os.Setenv("TMPDIR", tmp)
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
