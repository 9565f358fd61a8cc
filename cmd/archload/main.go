// Command archload drives a cluster (or a single archserve node) with
// a zipf-distributed job mix and reports latency percentiles, error
// rate and backpressure rate — the observable half of the cluster's
// robustness story.  A zipf spec popularity curve is the realistic
// workload for a fingerprint-sharded cache: a few hot specs dominate
// (and should hit node caches), a long tail stays cold.
//
//	archload -coord http://127.0.0.1:8090 -clients 8 -jobs 200
//	archload -cluster 3 -clients 8 -jobs 200
//	archload -cluster 3 -rate 200 -jobs 1000 -slo "p99<250ms,err<1%"
//
// With -cluster N the tool is self-contained: it spins up N in-process
// archserve nodes and a coordinator, runs the load, and tears it all
// down.  It prints what it measured; the repository's measuring
// instrument for the cluster is `bash benchmark/run.sh` (workloads
// jobs-cold and jobs-zipf in BENCHMARK.json).
//
// Two load modes:
//
//   - Closed loop (default): -clients goroutines each issue the next
//     request as soon as the previous response returns.  Simple, but a
//     slow service throttles its own measurement.
//   - Open loop (-rate R): arrivals form a Poisson process of R
//     jobs/second launched at their scheduled instants, and latency is
//     measured from the scheduled arrival — the coordinated-omission-
//     safe discipline, where queueing delay a real client would suffer
//     shows up in the percentiles instead of vanishing.
//
// With -slo the run is evaluated against objectives like
// "p99<250ms,err<1%" (burn rates over a fast runDur/12 window and the
// whole run; see internal/slo) and the process exits nonzero on
// failure, so CI can gate on the verdict.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"
)

func main() {
	var (
		coordURL    = flag.String("coord", "", "coordinator (or single archserve) base URL")
		clusterN    = flag.Int("cluster", 0, "self-contained mode: spin up N in-process nodes + coordinator")
		clients     = flag.Int("clients", 8, "closed-loop client goroutines")
		jobs        = flag.Int("jobs", 200, "total requests to issue")
		specs       = flag.Int("specs", 32, "distinct spec population size")
		zipfS       = flag.Float64("zipf-s", 1.2, "zipf exponent (>1; larger = hotter head)")
		zipfV       = flag.Float64("zipf-v", 1.0, "zipf offset (>=1)")
		p           = flag.Int("p", 2, "ranks per job (self-contained nodes)")
		workers     = flag.Int("workers", 1, "executors per node (self-contained nodes)")
		seed        = flag.Int64("seed", 1, "workload RNG seed")
		rate        = flag.Float64("rate", 0, "open-loop mode: Poisson arrival rate in jobs/s (0 = closed loop)")
		sloSpec     = flag.String("slo", "", `SLO spec to evaluate, e.g. "p99<250ms,err<1%" (exit 1 on failure)`)
		inject      = flag.Duration("inject-latency", 0, "add this synthetic delay to every measured latency (SLO failure testing)")
		traceOut    = flag.String("trace-out", "", "write one sampled job's merged Chrome trace to this file")
		hotDisabled = flag.Bool("hot-disabled", false, "disable the coordinator's hot-shard layer (self-contained mode)")
		hotshard    = flag.Bool("hotshard", false, "A/B mode: run the same seeded workload with the hot-shard layer off, then on, and report the delta (requires -cluster)")
	)
	flag.Parse()

	if *coordURL != "" && *clusterN > 0 {
		log.Fatal("archload: use -coord or -cluster, not both")
	}
	cfg := loadConfig{
		Target:        *coordURL,
		Cluster:       *clusterN,
		P:             *p,
		Workers:       *workers,
		Clients:       *clients,
		Jobs:          *jobs,
		Specs:         *specs,
		ZipfS:         *zipfS,
		ZipfV:         *zipfV,
		Seed:          *seed,
		Rate:          *rate,
		SLO:           *sloSpec,
		InjectLatency: *inject,
		SampleTrace:   *traceOut != "",
		HotDisabled:   *hotDisabled,
	}

	if *hotshard {
		if *clusterN <= 0 {
			log.Fatal("archload: -hotshard needs -cluster (each arm spins up its own fresh cluster)")
		}
		runHotshardCompare(cfg)
		return
	}

	res, err := runLoad(cfg)
	if err != nil {
		log.Fatalf("archload: %v", err)
	}
	if res.Total == 0 {
		log.Fatal("archload: no samples")
	}

	mode := fmt.Sprintf("closed loop, %d clients", *clients)
	if *rate > 0 {
		mode = fmt.Sprintf("open loop, %.1f jobs/s Poisson", *rate)
	}
	ms := func(q float64) time.Duration { return time.Duration(res.Hist.Quantile(q)).Round(time.Microsecond) }
	fmt.Printf("archload: %d requests in %v (%s, %d specs, zipf s=%.2f)\n",
		res.Total, res.Elapsed.Round(time.Millisecond), mode, *specs, *zipfS)
	fmt.Printf("  ok=%d err=%d 429=%d degraded=%d cache-hits=%d\n",
		res.OK, res.Errs, res.Overloaded, res.Degraded, res.CacheHits)
	fmt.Printf("  latency p50=%v p95=%v p99=%v p999=%v  throughput=%.1f jobs/s\n",
		ms(0.50), ms(0.95), ms(0.99), ms(0.999), res.Throughput)
	if res.SLO != nil {
		fmt.Print(res.SLO.Format())
	}
	if res.SampledTrace != "" {
		if err := os.WriteFile(*traceOut, res.TraceJSON, 0o644); err != nil {
			log.Fatalf("archload: write trace: %v", err)
		}
		log.Printf("archload: merged trace for job %s written to %s", res.SampledTrace, *traceOut)
	} else if *traceOut != "" {
		log.Printf("archload: no merged trace retrievable this run")
	}
	if res.Errs > 0 || (res.SLO != nil && !res.SLO.Pass) {
		os.Exit(1)
	}
}

// runHotshardCompare is -hotshard: the same seeded workload against two
// fresh self-contained clusters — hot-shard layer disabled, then
// enabled — printed as hot-key p99, imbalance and throughput per arm.
func runHotshardCompare(cfg loadConfig) {
	arm := func(disabled bool, label string) *loadResult {
		c := cfg
		c.HotDisabled = disabled
		res, err := runLoad(c)
		if err != nil {
			log.Fatalf("archload: %s arm: %v", label, err)
		}
		if res.Errs > 0 {
			log.Fatalf("archload: %s arm had %d transport errors", label, res.Errs)
		}
		return res
	}
	off := arm(true, "hot-off")
	on := arm(false, "hot-on")

	hotP99 := func(r *loadResult) time.Duration { return r.HotHist.QuantileDuration(0.99).Round(time.Microsecond) }
	fmt.Printf("archload hotshard A/B (%d jobs, %d specs, zipf s=%.2f, %d nodes):\n",
		cfg.Jobs, cfg.Specs, cfg.ZipfS, cfg.Cluster)
	fmt.Printf("  hot-key p99   off=%v on=%v\n", hotP99(off), hotP99(on))
	fmt.Printf("  imbalance     off=%.3f on=%.3f (max/mean served; 1.0 = even)\n", off.Imbalance, on.Imbalance)
	fmt.Printf("  throughput    off=%.1f on=%.1f jobs/s\n", off.Throughput, on.Throughput)
}
