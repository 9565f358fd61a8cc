package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/cluster/client"
	"repro/internal/fault"
	"repro/internal/fdtd"
	"repro/internal/mesh"
	"repro/internal/procs"
	"repro/internal/serve"
)

// buildArchserve compiles the real node binary once per test binary.
func buildArchserve(t *testing.T) string {
	t.Helper()
	exe := filepath.Join(t.TempDir(), "archserve")
	cmd := exec.Command("go", "build", "-o", exe, "repro/cmd/archserve")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build archserve: %v\n%s", err, out)
	}
	return exe
}

func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// chaosNode is one archserve process supervised through procs (so the
// SIGKILL in this test is exactly the procs-level kill path the
// launcher satellite hardens: typed error, stderr tail, run-dir reap).
type chaosNode struct {
	name   string
	addr   string
	cmd    *exec.Cmd
	group  *procs.Group
	runDir string
	done   chan struct{} // closed when the group's Wait returned
	err    error         // the group's Wait result; read after done
}

func (n *chaosNode) url() string { return "http://" + n.addr }

// startChaosNode launches one archserve on a fixed addr under its own
// single-worker procs group (per-node groups: killing one node must
// not fail-fast the others).
func startChaosNode(t *testing.T, exe, name, addr string) *chaosNode {
	t.Helper()
	runDir := filepath.Join(t.TempDir(), name+"-run")
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		t.Fatal(err)
	}
	// A file inside proves the reap removed real content, not an empty
	// shell.
	if err := os.WriteFile(filepath.Join(runDir, "scratch"), []byte(name), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-addr", addr, "-p", "2", "-workers", "2", "-queue", "32")
	g, err := procs.StartWorkers([]procs.Worker{{Cmd: cmd, RunDir: runDir}})
	if err != nil {
		t.Fatalf("start node %s: %v", name, err)
	}
	n := &chaosNode{name: name, addr: addr, cmd: cmd, group: g, runDir: runDir, done: make(chan struct{})}
	go func() {
		n.err = g.Wait(5 * time.Minute)
		close(n.done)
	}()
	t.Cleanup(func() {
		g.Kill()
		select {
		case <-n.done:
		case <-time.After(30 * time.Second):
		}
	})
	return n
}

func waitNodeReady(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("node %s never became healthy", url)
}

// postSpec submits one spec through the coordinator front and returns
// the decoded wrapper + result (status 200 asserted by the caller via
// the error return).
func postSpec(hc *http.Client, front string, spec fdtd.Spec) (*ClusterResponse, *serve.JobResult, error) {
	body, _ := json.Marshal(serve.JobRequest{Spec: &spec})
	resp, err := hc.Post(front+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("status %d: %s", resp.StatusCode, raw)
	}
	var cr ClusterResponse
	if err := json.Unmarshal(raw, &cr); err != nil {
		return nil, nil, fmt.Errorf("decode wrapper: %w", err)
	}
	var jr serve.JobResult
	if err := json.Unmarshal(cr.Result, &jr); err != nil {
		return nil, nil, fmt.Errorf("decode result: %w", err)
	}
	return &cr, &jr, nil
}

// TestClusterChaos is the chaos acceptance test: a 3-node cluster of
// real archserve processes serves >= 50 concurrent jobs (duplicates
// included) while one node is SIGKILLed mid-burst.  Asserted:
//
//   - zero accepted jobs lost — every request completes 200 through
//     retry/failover;
//   - every response bitwise-identical (probe floats + FieldHash) to a
//     fresh mesh.Sim recomputation, and to a mesh.Par recomputation
//     over a transport decorated by fault.DelaySends — the seeded
//     injector composed into the oracle, per Theorem 1;
//   - the dead node's ring arc is reassigned (degraded responses from
//     live nodes) within the probe failure threshold;
//   - the kill surfaces through procs as a typed *WorkerError with the
//     stderr tail, and the node's run-dir is reaped atomically;
//   - the killed node restarts, walks dead → rejoining → healthy, and
//     then serves cache hits for its arc again;
//   - the run leaks no goroutines (vetted under -race by make race).
func TestClusterChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test spawns real processes")
	}
	before := runtime.NumGoroutine()
	exe := buildArchserve(t)

	names := []string{"n0", "n1", "n2"}
	nodes := map[string]*chaosNode{}
	var roster []Node
	for _, name := range names {
		n := startChaosNode(t, exe, name, freePort(t))
		nodes[name] = n
		roster = append(roster, Node{Name: name, URL: n.url()})
	}
	const (
		probeInterval = 25 * time.Millisecond
		deadAfter     = 3
	)
	coord, err := New(Config{
		Nodes: roster,
		Member: MemberConfig{
			ProbeInterval: probeInterval,
			ProbeTimeout:  2 * time.Second,
			SuspectAfter:  1,
			DeadAfter:     deadAfter,
			RejoinAfter:   2,
		},
		Client: client.Policy{
			MaxAttempts:       9,
			PerAttemptTimeout: 60 * time.Second,
			BaseBackoff:       5 * time.Millisecond,
			MaxBackoff:        50 * time.Millisecond,
			MaxRetryAfter:     200 * time.Millisecond,
		},
		Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(coord.Handler())
	defer func() {
		front.Close()
		coord.Close()
	}()
	for _, n := range nodes {
		waitNodeReady(t, n.url())
	}

	// Spec population: 12 distinct fast specs, including at least two
	// whose ring primary is the victim, so the burst provably exercises
	// the dead node's arc.  60 requests = each spec 5 times
	// (duplicates by design: coalescing and caching are part of what
	// must stay bitwise-correct under fire).
	const victim = "n1"
	ring := coord.Membership().Ring()
	var specs []fdtd.Spec
	victimSpecs := 0
	for i := 0; len(specs) < 12 || victimSpecs < 2; i++ {
		spec := uniqueSpec(i)
		prim := ring.Primary(spec.Fingerprint())
		if len(specs) < 12 || prim == victim {
			specs = append(specs, spec)
			if prim == victim {
				victimSpecs++
			}
		}
		if i > 10000 {
			t.Fatal("could not build spec population")
		}
	}
	total := 5 * len(specs)

	type outcome struct {
		specIdx int
		cr      *ClusterResponse
		jr      *serve.JobResult
		err     error
	}
	results := make(chan outcome, total+len(specs))
	firstDone := make(chan struct{}, total)
	hc := &http.Client{Timeout: 3 * time.Minute}
	defer hc.CloseIdleConnections()
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			idx := i % len(specs)
			cr, jr, err := postSpec(hc, front.URL, specs[idx])
			firstDone <- struct{}{}
			results <- outcome{specIdx: idx, cr: cr, jr: jr, err: err}
		}(i)
	}

	// Mid-burst, after a handful of jobs completed: SIGKILL the victim.
	for i := 0; i < 5; i++ {
		<-firstDone
	}
	nodes[victim].cmd.Process.Kill()
	killedAt := time.Now()

	// Second wave, fired into the teeth of the failure before the
	// membership layer can possibly have noticed: victim-arc requests
	// still route to the dead node first and must fail over on the
	// transport error (and come back degraded — the primary is gone).
	for idx := range specs {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			cr, jr, err := postSpec(hc, front.URL, specs[idx])
			results <- outcome{specIdx: idx, cr: cr, jr: jr, err: err}
		}(idx)
	}

	wg.Wait()
	close(results)

	// Zero lost jobs, and per-spec bitwise agreement.
	bySpec := make(map[int][]*serve.JobResult)
	degradedSeen := false
	for o := range results {
		if o.err != nil {
			t.Fatalf("request for spec %d lost during chaos: %v", o.specIdx, o.err)
		}
		bySpec[o.specIdx] = append(bySpec[o.specIdx], o.jr)
		if o.cr.Degraded {
			degradedSeen = true
		}
	}
	for idx, rs := range bySpec {
		for _, r := range rs[1:] {
			if !rs[0].BitwiseEqual(r) {
				t.Fatalf("spec %d: responses disagree bitwise: %s vs %s", idx, rs[0].FieldHash, r.FieldHash)
			}
		}
	}

	// Bitwise identity against the determinacy oracle: a fresh
	// mesh.Sim recomputation of every spec must match what the cluster
	// served, probe floats and FieldHash alike.
	for idx, spec := range specs {
		fresh, err := fdtd.RunArchetype(spec, 2, mesh.Sim, fdtd.DefaultOptions())
		if err != nil {
			t.Fatalf("oracle recomputation of spec %d: %v", idx, err)
		}
		got := bySpec[idx][0]
		if got.FieldHash != serve.ResultFieldHash(fresh) {
			t.Fatalf("spec %d: cluster FieldHash %s != mesh.Sim oracle %s", idx, got.FieldHash, serve.ResultFieldHash(fresh))
		}
		if len(got.Probe) != len(fresh.Probe) {
			t.Fatalf("spec %d: probe length %d != oracle %d", idx, len(got.Probe), len(fresh.Probe))
		}
		for s := range fresh.Probe {
			if got.Probe[s] != fresh.Probe[s] {
				t.Fatalf("spec %d: probe[%d] differs from oracle", idx, s)
			}
		}
	}
	// And against mesh.Par under fault.DelaySends — the seeded injector
	// perturbing real-channel message timing; Theorem 1 says the answer
	// cannot move.  Two specs keep this affordable.
	for idx := 0; idx < 2; idx++ {
		opt := fdtd.DefaultOptions()
		opt.Mesh.Transport = fault.DelaySends[mesh.Msg](channel.NewChanNet[mesh.Msg](2), 42, 2*time.Millisecond)
		delayed, err := fdtd.RunArchetype(specs[idx], 2, mesh.Par, opt)
		if err != nil {
			t.Fatalf("delayed recomputation of spec %d: %v", idx, err)
		}
		if got := bySpec[idx][0]; got.FieldHash != serve.ResultFieldHash(delayed) {
			t.Fatalf("spec %d: cluster FieldHash %s != delayed mesh.Par %s", idx, got.FieldHash, serve.ResultFieldHash(delayed))
		}
	}
	if !degradedSeen {
		t.Fatal("no degraded response in the burst — the kill never exercised failover")
	}

	// The dead node's arc is reassigned within the probe failure
	// threshold (detection needs deadAfter failed probes; allow probe
	// timeout slack for the first post-kill probe already in flight).
	detectBy := killedAt.Add(time.Duration(deadAfter+1)*probeInterval + 3*time.Second)
	for coord.Membership().State(victim) != StateDead {
		if time.Now().After(detectBy) {
			t.Fatalf("victim still %v past the failure threshold", coord.Membership().State(victim))
		}
		time.Sleep(5 * time.Millisecond)
	}
	// A victim-arc job now degrades to a live node instead of failing.
	var victimSpec fdtd.Spec
	victimIdx := -1
	for idx, spec := range specs {
		if ring.Primary(spec.Fingerprint()) == victim {
			victimSpec, victimIdx = spec, idx
			break
		}
	}
	cr, _, err := postSpec(hc, front.URL, victimSpec)
	if err != nil {
		t.Fatalf("victim-arc job after death: %v", err)
	}
	if !cr.Degraded || cr.Node == victim || cr.Primary != victim {
		t.Fatalf("victim-arc response node=%q primary=%q degraded=%v, want other/%s/true", cr.Node, cr.Primary, cr.Degraded, victim)
	}

	// The kill surfaced through procs: typed *WorkerError, stderr tail
	// captured, run-dir reaped atomically.
	select {
	case <-nodes[victim].done:
		var we *procs.WorkerError
		if !errors.As(nodes[victim].err, &we) {
			t.Fatalf("victim group error %v (%T), want *WorkerError", nodes[victim].err, nodes[victim].err)
		}
		if !strings.Contains(we.Err.Error(), "killed") {
			t.Fatalf("worker error %v does not describe the kill signal", we.Err)
		}
		if !strings.Contains(we.Stderr, "archserve") {
			t.Fatalf("stderr tail %q lost the node's log output", we.Stderr)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("victim group never reported the kill")
	}
	if _, err := os.Stat(nodes[victim].runDir); !os.IsNotExist(err) {
		t.Fatalf("victim run-dir not reaped (stat err %v)", err)
	}

	// Restart the victim on the same addr under the same ring name: it
	// must walk dead -> rejoining -> healthy and then serve cache hits
	// for its arc again.
	restarted := startChaosNode(t, exe, victim, nodes[victim].addr)
	nodes[victim] = restarted
	waitNodeReady(t, restarted.url())
	rejoinBy := time.Now().Add(15 * time.Second)
	for coord.Membership().State(victim) != StateHealthy {
		if time.Now().After(rejoinBy) {
			t.Fatalf("victim never rejoined; state %v", coord.Membership().State(victim))
		}
		time.Sleep(5 * time.Millisecond)
	}
	cr1, jr1, err := postSpec(hc, front.URL, victimSpec)
	if err != nil {
		t.Fatalf("post-rejoin job: %v", err)
	}
	if cr1.Node != victim || cr1.Degraded {
		t.Fatalf("post-rejoin response node=%q degraded=%v, want %s/false (arc restored)", cr1.Node, cr1.Degraded, victim)
	}
	cr2, jr2, err := postSpec(hc, front.URL, victimSpec)
	if err != nil {
		t.Fatalf("post-rejoin cache probe: %v", err)
	}
	if cr2.Node != victim || cr2.Origin != "cache" {
		t.Fatalf("second post-rejoin response node=%q origin=%q, want %s/cache", cr2.Node, cr2.Origin, victim)
	}
	// The restarted node's fresh computation must equal both its own
	// cache hit and what the cluster served during the burst.
	if !jr1.BitwiseEqual(jr2) || !jr1.BitwiseEqual(bySpec[victimIdx][0]) {
		t.Fatal("post-rejoin results drifted bitwise")
	}

	// Graceful teardown: SIGTERM the survivors; archserve must drain
	// and exit zero.
	front.Close()
	coord.Close()
	hc.CloseIdleConnections()
	for name, n := range nodes {
		n.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-n.done:
			if n.err != nil {
				t.Fatalf("node %s did not drain cleanly: %v", name, n.err)
			}
		case <-time.After(60 * time.Second):
			t.Fatalf("node %s never exited after SIGTERM", name)
		}
	}

	// No goroutine leaks: everything the coordinator, client and test
	// spawned must wind down.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before+3 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d -> %d", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
