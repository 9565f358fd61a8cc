package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/client"
	"repro/internal/fdtd"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/slo"
)

// loadConfig is everything one load run needs; main fills it from
// flags, tests fill it directly.
type loadConfig struct {
	// Target is the coordinator (or single archserve) base URL.  Empty
	// with Cluster > 0 means self-contained mode.
	Target  string
	Cluster int // self-contained: spin up N in-process nodes + coordinator
	P       int // ranks per job (self-contained nodes)
	Workers int // executors per node (self-contained nodes)

	Clients int // closed-loop client goroutines (ignored open-loop)
	Jobs    int
	Specs   int
	ZipfS   float64
	ZipfV   float64
	Seed    int64

	// Rate switches to open-loop mode: arrivals form a Poisson process
	// of this intensity (jobs/second), each request launched at its
	// scheduled instant regardless of how many are still in flight, and
	// latency measured from the scheduled arrival — not the actual send
	// — so a stalled service cannot suppress the samples that would
	// indict it (coordinated omission).  0 keeps the closed loop.
	Rate float64

	// SLO evaluates the run against a spec like "p99<250ms,err<1%"
	// (see internal/slo); empty disables evaluation.
	SLO string

	// InjectLatency adds a fixed synthetic delay to every measured
	// latency — a test hook that simulates a uniformly degraded service
	// so the SLO failure path can be exercised deterministically.
	InjectLatency time.Duration

	// SampleTrace fetches the merged Chrome trace of one computed job
	// from the coordinator after the run.
	SampleTrace bool

	// HotDisabled turns off the coordinator's hot-shard layer in
	// self-contained mode — the baseline arm of a -hotshard comparison.
	HotDisabled bool

	Quiet bool // suppress progress logging (tests)
}

func (c loadConfig) withDefaults() loadConfig {
	if c.P <= 0 {
		c.P = 2
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if c.Jobs <= 0 {
		c.Jobs = 200
	}
	if c.Specs <= 0 {
		c.Specs = 32
	}
	if c.ZipfS <= 1 {
		c.ZipfS = 1.2
	}
	if c.ZipfV < 1 {
		c.ZipfV = 1.0
	}
	return c
}

// sample is one request's outcome.  start is the latency-measurement
// origin: the scheduled arrival in open-loop mode, the actual send in
// closed-loop mode — both as offsets from the run start.
type sample struct {
	start    time.Duration
	latency  time.Duration
	status   int
	origin   string
	degraded bool
	err      bool // transport-level failure
	trace    string
	specIdx  int // workload spec index; 0 is the zipf head (the hot key)
}

// loadResult is the structured outcome of one run.
type loadResult struct {
	Total, OK, Errs, Overloaded, Degraded, CacheHits int
	Elapsed                                          time.Duration
	Throughput                                       float64 // ok jobs per second
	Hist                                             obs.HistSnapshot
	// HotHist is the latency histogram restricted to the zipf head
	// (spec index 0) — the requests hot-shard routing acts on.
	HotHist obs.HistSnapshot
	// Imbalance is max/mean of per-node served counts from the
	// coordinator's /v1/stats after the run (1.0 = perfectly even; 0
	// when the target exposes no node stats).
	Imbalance    float64
	SLO          *slo.Report // nil unless requested
	SampledTrace string      // trace id of the sampled job
	TraceJSON    []byte      // merged Chrome trace for it
	samples      []sample
}

// loadSpec is spec i of the population: a fast Version A run whose
// source delay perturbs the fingerprint without changing the cost, so
// every distinct i is a distinct cache key of identical weight.
func loadSpec(i int) fdtd.Spec {
	s := fdtd.SpecSmallA()
	s.Source.Delay = 5 + float64(i)
	return s
}

// localNode is one self-contained in-process archserve.
type localNode struct {
	srv  *serve.Server
	http *http.Server
}

// startLocalCluster spins up n nodes and a coordinator, returning the
// coordinator URL and a teardown function.
func startLocalCluster(n, p, workers int, hotDisabled bool) (string, func(), error) {
	var nodes []localNode
	var roster []cluster.Node
	teardown := func() {
		for _, nd := range nodes {
			nd.http.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			nd.srv.Shutdown(ctx)
			cancel()
		}
	}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			teardown()
			return "", nil, err
		}
		name := fmt.Sprintf("n%d", i)
		s := serve.New(serve.Config{P: p, Workers: workers, Name: name})
		hs := &http.Server{Handler: s.Handler()}
		go hs.Serve(ln)
		nodes = append(nodes, localNode{srv: s, http: hs})
		roster = append(roster, cluster.Node{
			Name: name,
			URL:  "http://" + ln.Addr().String(),
		})
	}
	coord, err := cluster.New(cluster.Config{
		Nodes:  roster,
		Member: cluster.MemberConfig{ProbeInterval: 100 * time.Millisecond},
		Client: client.Policy{},
		Hot:    cluster.HotConfig{Disabled: hotDisabled},
		Seed:   1,
	})
	if err != nil {
		teardown()
		return "", nil, err
	}
	cln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		coord.Close()
		teardown()
		return "", nil, err
	}
	chs := &http.Server{Handler: coord.Handler()}
	go chs.Serve(cln)
	full := func() {
		chs.Close()
		coord.Close()
		teardown()
	}
	return "http://" + cln.Addr().String(), full, nil
}

// doRequest issues one job submission and classifies the outcome.
func doRequest(hc *http.Client, target string, spec fdtd.Spec) sample {
	body, _ := json.Marshal(serve.JobRequest{Spec: &spec})
	resp, err := hc.Post(target+"/v1/jobs", "application/json", bytes.NewReader(body))
	var s sample
	if err != nil {
		s.err = true
		return s
	}
	defer resp.Body.Close()
	s.status = resp.StatusCode
	if resp.StatusCode == http.StatusOK {
		var cr struct {
			Origin   string `json:"origin"`
			Degraded bool   `json:"degraded"`
			Trace    string `json:"trace"`
		}
		raw, _ := io.ReadAll(resp.Body)
		if json.Unmarshal(raw, &cr) == nil {
			s.origin = cr.Origin
			s.degraded = cr.Degraded
			s.trace = cr.Trace
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return s
}

// runLoad executes one load run: closed-loop (Clients goroutines, each
// firing as fast as its responses return) or open-loop (-rate: Poisson
// arrivals, one goroutine per request at its scheduled instant).
func runLoad(cfg loadConfig) (*loadResult, error) {
	cfg = cfg.withDefaults()
	target := cfg.Target
	if cfg.Cluster > 0 {
		if target != "" {
			return nil, fmt.Errorf("use Target or Cluster, not both")
		}
		url, teardown, err := startLocalCluster(cfg.Cluster, cfg.P, cfg.Workers, cfg.HotDisabled)
		if err != nil {
			return nil, fmt.Errorf("start cluster: %w", err)
		}
		defer teardown()
		target = url
		if !cfg.Quiet {
			log.Printf("archload: self-contained cluster of %d nodes behind %s", cfg.Cluster, target)
		}
	}
	if target == "" {
		return nil, fmt.Errorf("a target URL (or Cluster > 0) is required")
	}

	var spec *slo.Spec
	if cfg.SLO != "" {
		var err error
		if spec, err = slo.ParseSpec(cfg.SLO); err != nil {
			return nil, err
		}
	}

	var (
		mu      sync.Mutex
		samples []sample
	)
	add := func(s sample) {
		mu.Lock()
		samples = append(samples, s)
		mu.Unlock()
	}
	hc := &http.Client{Timeout: 2 * time.Minute}
	rng := rand.New(rand.NewSource(cfg.Seed))
	zipf := rand.NewZipf(rng, cfg.ZipfS, cfg.ZipfV, uint64(cfg.Specs-1))
	// Spec choices and (open-loop) arrival offsets are drawn up front
	// from one seeded RNG, so the workload is reproducible regardless
	// of client interleaving.
	specIdx := make([]int, cfg.Jobs)
	for i := range specIdx {
		specIdx[i] = int(zipf.Uint64())
	}

	start := time.Now()
	var wg sync.WaitGroup
	if cfg.Rate > 0 {
		// Open loop: exponential inter-arrival gaps at intensity Rate.
		arrivals := make([]time.Duration, cfg.Jobs)
		var at time.Duration
		for i := range arrivals {
			at += time.Duration(rng.ExpFloat64() / cfg.Rate * float64(time.Second))
			arrivals[i] = at
		}
		for i := 0; i < cfg.Jobs; i++ {
			sched := arrivals[i]
			time.Sleep(time.Until(start.Add(sched)))
			wg.Add(1)
			go func(i int, sched time.Duration) {
				defer wg.Done()
				s := doRequest(hc, target, loadSpec(specIdx[i]))
				// Coordinated-omission-safe: latency runs from the
				// scheduled arrival, so time spent queued behind a slow
				// service counts against the service.
				s.start = sched
				s.latency = time.Since(start.Add(sched)) + cfg.InjectLatency
				s.specIdx = specIdx[i]
				add(s)
			}(i, sched)
		}
	} else {
		var next int64 = -1
		var idx sync.Mutex
		take := func() int {
			idx.Lock()
			defer idx.Unlock()
			next++
			if next >= int64(cfg.Jobs) {
				return -1
			}
			return int(next)
		}
		for c := 0; c < cfg.Clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := take()
					if i < 0 {
						return
					}
					t0 := time.Now()
					s := doRequest(hc, target, loadSpec(specIdx[i]))
					s.start = t0.Sub(start)
					s.latency = time.Since(t0) + cfg.InjectLatency
					s.specIdx = specIdx[i]
					add(s)
				}
			}()
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := &loadResult{Elapsed: elapsed, samples: samples}
	hist := obs.NewHistogram()
	hotHist := obs.NewHistogram()
	var sloSamples []slo.Sample
	for _, s := range samples {
		res.Total++
		hist.Record(s.latency)
		if s.specIdx == 0 {
			hotHist.Record(s.latency)
		}
		bad := s.err
		switch {
		case s.err:
			res.Errs++
		case s.status == http.StatusOK:
			res.OK++
			if s.degraded {
				res.Degraded++
			}
			if s.origin == "cache" || s.origin == "coalesced" {
				res.CacheHits++
			}
		case s.status == http.StatusTooManyRequests:
			res.Overloaded++
			bad = true
		default:
			res.Errs++
			bad = true
		}
		sloSamples = append(sloSamples, slo.Sample{Start: s.start, Latency: s.latency, Err: bad})
	}
	res.Hist = hist.Snapshot()
	res.HotHist = hotHist.Snapshot()
	res.Throughput = float64(res.OK) / elapsed.Seconds()
	res.Imbalance = fetchImbalance(hc, target)
	if spec != nil {
		res.SLO = slo.Eval(spec, sloSamples, elapsed)
	}
	if cfg.SampleTrace {
		res.sampleTrace(hc, target)
	}
	return res, nil
}

// fetchImbalance reads the coordinator's per-node served counts and
// returns max/mean — 1.0 is a perfectly even spread, N is everything on
// one node of N.  Best-effort: a target without node stats (a single
// archserve, say) yields 0.
func fetchImbalance(hc *http.Client, target string) float64 {
	resp, err := hc.Get(target + "/v1/stats")
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	var st struct {
		Nodes []struct {
			Served int64 `json:"served"`
		} `json:"nodes"`
	}
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&st) != nil || len(st.Nodes) == 0 {
		return 0
	}
	var total, max int64
	for _, n := range st.Nodes {
		total += n.Served
		if n.Served > max {
			max = n.Served
		}
	}
	if total == 0 {
		return 0
	}
	mean := float64(total) / float64(len(st.Nodes))
	return float64(max) / mean
}

// sampleTrace picks one traced response — preferring a computed job,
// whose bundle carries rank-level spans, over cache hits — and fetches
// its merged Chrome trace from the coordinator.  Best-effort: a run
// with no retrievable trace just leaves the fields empty.
func (r *loadResult) sampleTrace(hc *http.Client, target string) {
	cands := make([]sample, 0, len(r.samples))
	for _, s := range r.samples {
		if s.trace != "" && s.status == http.StatusOK {
			cands = append(cands, s)
		}
	}
	// Computed jobs first, newest last (more likely still in the ring).
	sort.SliceStable(cands, func(i, j int) bool {
		ci := cands[i].origin == "computed"
		cj := cands[j].origin == "computed"
		return ci && !cj
	})
	for _, s := range cands {
		resp, err := hc.Get(target + "/v1/jobs/" + s.trace + "/trace")
		if err != nil {
			continue
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			continue
		}
		r.SampledTrace = s.trace
		r.TraceJSON = body
		return
	}
}
