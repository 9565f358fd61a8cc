package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/client"
	"repro/internal/fdtd"
	"repro/internal/mesh"
	"repro/internal/serve"
)

const (
	clusterNodes = 3
	jobClients   = 2 // closed loop, one keep-alive connection each
	zipfS        = 1.8
	zipfV        = 1.0
)

// localCluster is the service under test: archserve nodes behind one
// coordinator, all in this process, talking loopback HTTP.
type localCluster struct {
	nodes   []*serve.Server
	servers []*http.Server
	coord   *cluster.Coordinator
	url     string // the coordinator's base URL
	nodeURL []string
}

func listenAndServe(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln) // returns when stop closes the server
	return hs, "http://" + ln.Addr().String(), nil
}

// startCluster brings up n nodes and a coordinator and returns once the
// coordinator reports every member healthy.
func startCluster(n int) (c *localCluster, err error) {
	c = &localCluster{}
	defer func() {
		if err != nil {
			c.stop()
		}
	}()
	var roster []cluster.Node
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("n%d", i)
		s := serve.New(serve.Config{P: ranks, Workers: 1, Name: name})
		c.nodes = append(c.nodes, s)
		hs, url, err := listenAndServe(s.Handler())
		if err != nil {
			return c, err
		}
		c.servers = append(c.servers, hs)
		c.nodeURL = append(c.nodeURL, url)
		roster = append(roster, cluster.Node{Name: name, URL: url})
	}
	c.coord, err = cluster.New(cluster.Config{
		Nodes:  roster,
		Member: cluster.MemberConfig{ProbeInterval: 100 * time.Millisecond},
		Client: client.Policy{},
		Seed:   1,
	})
	if err != nil {
		return c, err
	}
	hs, url, err := listenAndServe(c.coord.Handler())
	if err != nil {
		return c, err
	}
	c.servers = append(c.servers, hs)
	c.url = url
	return c, c.waitHealthy()
}

func (c *localCluster) waitHealthy() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		var nodes []cluster.NodeStatus
		err := getJSON(c.url+"/v1/nodes", &nodes)
		healthy := err == nil && len(nodes) == len(c.nodes)
		for _, n := range nodes {
			healthy = healthy && n.State == cluster.StateHealthy.String()
		}
		if healthy {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster not healthy after 10s (last error: %v)", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (c *localCluster) stop() {
	for _, hs := range c.servers {
		hs.Close()
	}
	if c.coord != nil {
		c.coord.Close()
	}
	for _, s := range c.nodes {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		s.Shutdown(ctx) // drains nothing: every client has returned
		cancel()
	}
}

func getJSON(url string, into any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// counters is the service's own account of its work so far:
// Server.Stats() summed over the nodes and the coordinator's
// GET /v1/stats.  Layer metrics are differences of two of these.
type counters struct {
	serve serve.Stats
	coord cluster.Stats
}

func (c *localCluster) counters() (counters, error) {
	var t counters
	for _, s := range c.nodes {
		st := s.Stats()
		t.serve.CacheHits += st.CacheHits
		t.serve.CacheMisses += st.CacheMisses
		t.serve.CacheEvictions += st.CacheEvictions
		t.serve.Coalesced += st.Coalesced
		t.serve.Batches += st.Batches
		t.serve.BatchedJobs += st.BatchedJobs
		t.serve.RejectedOverload += st.RejectedOverload
		t.serve.TransportRebuilds += st.TransportRebuilds
	}
	return t, getJSON(c.url+"/v1/stats", &t.coord)
}

// reply is one request's outcome as the client saw it.
type reply struct {
	spec       int // index into the workload's spec family
	start, end time.Time
	status     int // 0 for a transport error
	computed   bool
	hash       uint64 // the response's field_hash
	// Traced, computed jobs only: the node's own account of the run.
	run    float64            // JobResult.WallSeconds
	phases map[string]float64 // JobResult.PhaseSeconds, summed over ranks
}

func (r reply) latency() float64 { return r.end.Sub(r.start).Seconds() }

var (
	originKey    = []byte(`"origin":"`)
	fieldHashKey = []byte(`"field_hash":"`)
)

// jsonString returns the string value that follows the first key in
// raw, without decoding the kilobytes of probe samples around it: the
// generator shares two cores with the service it loads.
func jsonString(raw, key []byte) string {
	i := bytes.Index(raw, key)
	if i < 0 {
		return ""
	}
	rest := raw[i+len(key):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return ""
	}
	return string(rest[:j])
}

// jobsRun is the state of one jobs-workload run.
type jobsRun struct {
	cfg    runConfig
	zipf   bool
	bodies [][]byte // zipf: the encoded request of each spec
	expect []uint64 // zipf: the oracle's field hash of each spec
	next   atomic.Int64
	cl     *localCluster
}

func (j *jobsRun) spec(i int) fdtd.Spec {
	if j.zipf {
		// Spread the popular specs a visible distance apart.
		return perturb(j.cfg.sz.job, j.cfg.seed, i*1000)
	}
	return perturb(j.cfg.sz.job, j.cfg.seed, i)
}

func encodeRequest(spec fdtd.Spec) []byte {
	body, err := json.Marshal(serve.JobRequest{Spec: &spec})
	if err != nil {
		panic(err) // a Spec is ints, floats and bools
	}
	return body
}

// oracleHash recomputes spec under the sequential simulated-parallel
// runtime and digests its fields the way the service does.
func oracleHash(spec fdtd.Spec, corrupt bool) (uint64, error) {
	res, err := fdtd.RunArchetype(spec, ranks, mesh.Sim, fdtd.DefaultOptions())
	if err != nil {
		return 0, fmt.Errorf("oracle: %w", err)
	}
	h, err := strconv.ParseUint(serve.ResultFieldHash(res), 16, 64)
	if err != nil {
		return 0, fmt.Errorf("oracle: field hash: %w", err)
	}
	if corrupt {
		h ^= 1
	}
	return h, nil
}

// drive runs the closed-loop clients until stop says so and returns
// their replies in no particular order.  stop sees how many requests
// this call has issued so far.
func (j *jobsRun) drive(traced bool, stop func(issued int64) bool) []reply {
	var issued atomic.Int64
	out := make([][]reply, jobClients)
	var wg sync.WaitGroup
	for c := 0; c < jobClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			hc := &http.Client{Transport: &http.Transport{}, Timeout: 2 * time.Minute}
			defer hc.CloseIdleConnections()
			rng := rand.New(rand.NewSource(j.cfg.seed<<8 + int64(c)))
			var draw *rand.Zipf
			if j.zipf {
				draw = rand.NewZipf(rng, zipfS, zipfV, uint64(len(j.bodies)-1))
			}
			var buf bytes.Buffer
			for !stop(issued.Add(1) - 1) {
				var r reply
				var body []byte
				if j.zipf {
					r.spec = int(draw.Uint64())
					body = j.bodies[r.spec]
				} else {
					r.spec = int(j.next.Add(1) - 1)
					body = encodeRequest(j.spec(r.spec))
				}
				r.start = time.Now()
				resp, err := hc.Post(j.cl.url+"/v1/jobs", "application/json", bytes.NewReader(body))
				if err == nil {
					buf.Reset()
					_, err = buf.ReadFrom(resp.Body)
					resp.Body.Close()
				}
				r.end = time.Now()
				if err == nil {
					r.status = resp.StatusCode
				}
				if r.status == http.StatusOK {
					raw := buf.Bytes()
					r.computed = jsonString(raw, originKey) == serve.OriginComputed.String()
					r.hash, _ = strconv.ParseUint(jsonString(raw, fieldHashKey), 16, 64)
					if traced && r.computed {
						var full struct {
							Result serve.JobResult `json:"result"`
						}
						if json.Unmarshal(raw, &full) == nil {
							r.run, r.phases = full.Result.WallSeconds, full.Result.PhaseSeconds
						}
					}
				}
				out[c] = append(out[c], r)
			}
		}(c)
	}
	wg.Wait()
	var all []reply
	for _, rs := range out {
		all = append(all, rs...)
	}
	return all
}

func upTo(n int) func(int64) bool { return func(issued int64) bool { return issued >= int64(n) } }

func forDuration(d time.Duration) func(int64) bool {
	deadline := time.Now().Add(d)
	return func(int64) bool { return !time.Now().Before(deadline) }
}

// slice is the replies of one timed region, its start and its wall.
type slice struct {
	replies []reply
	start   time.Time
	wall    float64
}

func (j *jobsRun) timed(traced bool, d time.Duration) slice {
	t0 := time.Now()
	rs := j.drive(traced, forDuration(d))
	return slice{replies: rs, start: t0, wall: time.Since(t0).Seconds()}
}

// verify checks every reply and counts it into res; it returns the
// verified ones.  Zipf replies are all compared with the oracle; cold
// ones must be well-formed, and the caller samples them for
// recomputation.
func (j *jobsRun) verify(res *result, rs []reply) []reply {
	var good []reply
	for _, r := range rs {
		ok := r.status == http.StatusOK && r.hash != 0
		if ok && j.zipf {
			ok = r.hash == j.expect[r.spec]
		}
		res.count(ok)
		if ok {
			good = append(good, r)
		}
	}
	return good
}

func latencies(rs []reply) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.latency()
	}
	return out
}

// windows cuts the verified replies of a slice into whole seconds by
// completion time and returns each second's p50 and p90 latency (ms)
// and completions.  The metrics are medians over these windows, so a
// burst of interference from the shared host shorter than half the run
// does not move them.  A slice shorter than three seconds is one window.
func (s slice) windows(good []reply) (p50, p90, perSecond []float64) {
	n := int(s.wall)
	width := time.Second
	if n < 3 {
		n, width = 1, time.Duration(s.wall*float64(time.Second))+1
	}
	byWindow := make([][]float64, n)
	for _, r := range good {
		if w := int(r.end.Sub(s.start) / width); w < n {
			byWindow[w] = append(byWindow[w], r.latency()*1e3)
		}
	}
	for _, ms := range byWindow {
		sorted := sortedCopy(ms)
		p50 = append(p50, quantile(sorted, 0.5))
		p90 = append(p90, quantile(sorted, 0.9))
		perSecond = append(perSecond, float64(len(ms))/width.Seconds())
	}
	return p50, p90, perSecond
}

// sampleCold recomputes a seeded sample of the cold replies under the
// oracle; each mismatch turns one already-counted job into a failure.
func (j *jobsRun) sampleCold(res *result, rs []reply) error {
	rng := rand.New(rand.NewSource(j.cfg.seed))
	left := j.cfg.sz.coldSample
	for _, i := range rng.Perm(len(rs)) {
		r := rs[i]
		if r.status != http.StatusOK {
			continue
		}
		want, err := oracleHash(j.spec(r.spec), j.cfg.corruptOracle)
		if err != nil {
			return err
		}
		if r.hash != want {
			res.Failed++
		}
		if left--; left <= 0 {
			break
		}
	}
	return nil
}

// runJobs is jobs-cold (every request a new fingerprint) and jobs-zipf
// (a small popular family, so nearly every request is a cache hit).
func runJobs(zipf bool, cfg runConfig) (*result, error) {
	res := &result{Traced: cfg.traced}
	j := &jobsRun{cfg: cfg, zipf: zipf}
	if zipf {
		for i := 0; i < cfg.sz.zipfSpecs; i++ {
			h, err := oracleHash(j.spec(i), cfg.corruptOracle)
			if err != nil {
				return nil, err
			}
			j.expect = append(j.expect, h)
			j.bodies = append(j.bodies, encodeRequest(j.spec(i)))
		}
	}
	warm := cfg.sz.coldWarm
	if zipf {
		warm = cfg.sz.zipfWarm
	}

	// One set-up is what an operator pays before the service takes
	// traffic: nodes with their warm pools, the coordinator until every
	// member is healthy, and the warm-up requests that build the warm
	// meshes and fill the caches.  The last one serves the timed region.
	var setups []float64
	var all []reply
	for i := 0; i < cfg.sz.setupReps; i++ {
		if j.cl != nil {
			j.cl.stop()
		}
		t0 := time.Now()
		cl, err := startCluster(clusterNodes)
		if err != nil {
			return nil, fmt.Errorf("start cluster: %w", err)
		}
		j.cl = cl
		rs := j.drive(false, upTo(warm))
		setups = append(setups, time.Since(t0).Seconds())
		j.verify(res, rs)
		all = append(all, rs...)
	}
	defer func() { j.cl.stop() }()

	if !cfg.traced {
		s := j.timed(false, cfg.span(1))
		good := j.verify(res, s.replies)
		if !zipf {
			if err := j.sampleCold(res, append(all, s.replies...)); err != nil {
				return nil, err
			}
		}
		p50, p90, perSecond := s.windows(good)
		addEndToEnd(&res.Metrics, p50, p90, perSecond, setups)
		return res, nil
	}

	plain := j.timed(false, cfg.span(0.25))
	before, err := j.cl.counters()
	if err != nil {
		return nil, err
	}
	traced := j.timed(true, cfg.span(0.75))
	after, err := j.cl.counters()
	if err != nil {
		return nil, err
	}
	plainLat := latencies(j.verify(res, plain.replies))
	lat := latencies(j.verify(res, traced.replies))
	if !zipf {
		if err := j.sampleCold(res, append(append(all, plain.replies...), traced.replies...)); err != nil {
			return nil, err
		}
	}
	j.layerMetrics(res, traced, lat, before, after)
	res.Metrics.add("bench.trace_overhead", "ratio", ratio(median(lat), median(plainLat))-1)
	if err := standaloneLayers(&res.Metrics, cfg.sz, j.spec(0)); err != nil {
		return nil, err
	}

	// Means, so that cache hits and computed jobs mix into one wall.
	n := float64(len(traced.replies))
	part := func(ph string) float64 {
		var t float64
		for _, r := range traced.replies {
			t += r.phases[ph] / ranks
		}
		return t / n
	}
	hop, _ := res.Metrics.get("cluster.hop_us")
	wall := mean(lat)
	parts := []budgetRow{
		{Part: "serve.run/fdtd.compute", Seconds: part("compute")},
		{Part: "serve.run/mesh.exchange", Seconds: part("exchange")},
		{Part: "serve.run/mesh.collective", Seconds: part("collective")},
		{Part: "serve.run/mesh.io", Seconds: part("io")},
		{Part: "cluster.hop_us", Seconds: hop.Value * 1e-6},
	}
	rest := wall
	for _, p := range parts {
		rest -= p.Seconds
	}
	// Queue and batch wait, cache lookup, encode and the network: from
	// outside they are one number.
	res.setBudget(wall, append(parts, budgetRow{Part: "unattributed", Seconds: rest})...)
	return res, nil
}

// layerMetrics turns the traced slice and the counter deltas around it
// into the serve, cluster, client, fdtd and mesh rows.
func (j *jobsRun) layerMetrics(res *result, s slice, lat []float64, before, after counters) {
	m := &res.Metrics
	serve0, serve1 := before.serve, after.serve
	coord0, coord1 := before.coord, after.coord
	var runs, compute, exchange, collective, io []float64
	var ok, refused, failed int
	for _, r := range s.replies {
		switch {
		case r.status == http.StatusOK:
			ok++
		case r.status == http.StatusTooManyRequests:
			refused++
		default:
			failed++
		}
		if r.phases != nil {
			runs = append(runs, r.run*1e3)
			compute = append(compute, r.phases["compute"]/ranks)
			exchange = append(exchange, r.phases["exchange"]/ranks)
			collective = append(collective, r.phases["collective"]/ranks)
			io = append(io, r.phases["io"]/ranks)
		}
	}
	spec := j.spec(0)
	m.addSample("fdtd.compute_s", "s", compute)
	m.add("fdtd.cell_updates", "count", float64(spec.Cells())*float64(spec.Steps))
	m.addSample("mesh.exchange_s", "s", exchange)
	m.addSample("mesh.collective_s", "s", collective)
	m.addSample("mesh.io_s", "s", io)

	hits := float64(serve1.CacheHits - serve0.CacheHits)
	misses := float64(serve1.CacheMisses - serve0.CacheMisses)
	m.add("serve.cache_hits", "count", hits)
	m.add("serve.cache_misses", "count", misses)
	m.add("serve.cache_hit_ratio", "ratio", ratio(hits, hits+misses))
	m.add("serve.cache_evictions", "count", float64(serve1.CacheEvictions-serve0.CacheEvictions))
	m.add("serve.coalesced", "count", float64(serve1.Coalesced-serve0.Coalesced))
	m.add("serve.batches", "count", float64(serve1.Batches-serve0.Batches))
	m.add("serve.batched_jobs", "count", float64(serve1.BatchedJobs-serve0.BatchedJobs))
	m.add("serve.rejected_overload", "count", float64(serve1.RejectedOverload-serve0.RejectedOverload))
	m.add("serve.transport_rebuilds", "count", float64(serve1.TransportRebuilds-serve0.TransportRebuilds))
	m.addSample("serve.run_ms", "ms", runs)
	var nodeP50 []float64
	for _, n := range j.cl.nodes {
		if l := n.Stats().JobLatency; l.Count > 0 {
			nodeP50 = append(nodeP50, l.P50Ms)
		}
	}
	m.add("serve.node_p50_ms", "ms", median(nodeP50))

	m.add("cluster.forwarded", "count", float64(coord1.Forwarded-coord0.Forwarded))
	m.add("cluster.degraded", "count", float64(coord1.Degraded-coord0.Degraded))
	m.add("cluster.failovers", "count", float64(coord1.Failovers-coord0.Failovers))
	m.add("cluster.retried_429", "count", float64(coord1.Retried-coord0.Retried))
	m.add("cluster.hot_jobs", "count", float64(coord1.HotJobs-coord0.HotJobs))
	m.add("cluster.p2c_routes", "count", float64(coord1.P2CRoutes-coord0.P2CRoutes))
	m.add("cluster.replicated", "count", float64(coord1.Replicated-coord0.Replicated))
	var served []float64
	for i, n := range coord1.Nodes {
		served = append(served, float64(n.Served-coord0.Nodes[i].Served))
	}
	m.add("cluster.served_imbalance", "ratio", ratio(maxOf(served), mean(served)))

	sorted := sortedCopy(scaled(lat, 1e3))
	m.add("client.sent", "count", float64(len(s.replies)))
	m.add("client.ok", "count", float64(ok))
	m.add("client.failed", "count", float64(failed))
	m.add("client.refused_429", "count", float64(refused))
	m.add("client.job_p99_ms", "ms", quantile(sorted, 0.99))
	m.add("client.job_p999_ms", "ms", quantile(sorted, 0.999))

	for i, r := range s.replies {
		var attrs map[string]any
		if r.phases != nil {
			attrs = map[string]any{"run_ns": int64(r.run * 1e9)}
			for ph, v := range r.phases {
				attrs[ph+"_ns"] = int64(v * 1e9)
			}
		}
		name := "POST /v1/jobs cache"
		if r.computed {
			name = "POST /v1/jobs computed"
		}
		j.cfg.trace.add(i+1, 0, "client", name, r.start, r.end, attrs)
	}
}
