package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fdtd"
	"repro/internal/mesh"
	"repro/internal/serve"
)

func buildBinary(t *testing.T, name, pkg string) string {
	t.Helper()
	exe := filepath.Join(t.TempDir(), name)
	cmd := exec.Command("go", "build", "-o", exe, pkg)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
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

func waitReady(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("%s never became healthy", base)
}

// smokeSpec mirrors the load generator's population: a fast Version A
// spec distinguished by source delay.
func smokeSpec(i int) fdtd.Spec {
	s := fdtd.SpecSmallA()
	s.Source.Delay = 5 + float64(i)
	return s
}

// TestClusterSmoke boots the real archcoord binary over two real
// archserve nodes, kills one node mid-burst, and verifies that every
// request completes bitwise-identically (matching a mesh.Sim oracle),
// that /v1/nodes reports the death, and that SIGTERM stops the
// coordinator cleanly.
func TestClusterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke test spawns real processes")
	}
	coordExe := buildBinary(t, "archcoord", ".")
	serveExe := buildBinary(t, "archserve", "repro/cmd/archserve")

	// Two nodes.
	type nodeProc struct {
		name string
		addr string
		cmd  *exec.Cmd
		logs *strings.Builder
	}
	var nodes []*nodeProc
	for _, name := range []string{"n0", "n1"} {
		addr := freePort(t)
		cmd := exec.Command(serveExe, "-addr", addr, "-p", "2", "-workers", "2", "-queue", "32")
		logs := &strings.Builder{}
		cmd.Stdout = logs
		cmd.Stderr = logs
		if err := cmd.Start(); err != nil {
			t.Fatalf("start %s: %v", name, err)
		}
		n := &nodeProc{name: name, addr: addr, cmd: cmd, logs: logs}
		nodes = append(nodes, n)
		t.Cleanup(func() { n.cmd.Process.Kill(); n.cmd.Wait() })
	}

	// The coordinator binary, probing fast so the smoke stays quick.
	coordAddr := freePort(t)
	coordCmd := exec.Command(coordExe,
		"-addr", coordAddr,
		"-nodes", fmt.Sprintf("n0=http://%s,n1=http://%s", nodes[0].addr, nodes[1].addr),
		"-probe-interval", "25ms", "-dead-after", "3",
		"-max-attempts", "9", "-base-backoff", "5ms", "-max-backoff", "50ms")
	coordLogs := &strings.Builder{}
	coordCmd.Stdout = coordLogs
	coordCmd.Stderr = coordLogs
	if err := coordCmd.Start(); err != nil {
		t.Fatalf("start archcoord: %v", err)
	}
	t.Cleanup(func() { coordCmd.Process.Kill(); coordCmd.Wait() })

	front := "http://" + coordAddr
	for _, n := range nodes {
		waitReady(t, "http://"+n.addr)
	}
	waitReady(t, front)

	// The test computes the same ring the coordinator does (same code,
	// same names), so it knows which node to kill to hit real arcs.
	ring, err := cluster.NewRing([]string{"n0", "n1"})
	if err != nil {
		t.Fatal(err)
	}
	const victim = "n1"
	specs := make([]fdtd.Spec, 4)
	for i := range specs {
		specs[i] = smokeSpec(i)
	}

	type outcome struct {
		idx int
		jr  serve.JobResult
		err error
	}
	post := func(idx int) outcome {
		body, _ := json.Marshal(serve.JobRequest{Spec: &specs[idx]})
		resp, err := http.Post(front+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return outcome{idx: idx, err: err}
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			return outcome{idx: idx, err: fmt.Errorf("status %d: %s", resp.StatusCode, raw)}
		}
		var cr struct {
			Result serve.JobResult `json:"result"`
		}
		if err := json.Unmarshal(raw, &cr); err != nil {
			return outcome{idx: idx, err: err}
		}
		return outcome{idx: idx, jr: cr.Result}
	}

	const total = 20
	results := make(chan outcome, 2*total)
	firstDone := make(chan struct{}, total)
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := post(i % len(specs))
			firstDone <- struct{}{}
			results <- o
		}(i)
	}
	// Kill the victim node mid-burst, then fire a second wave into the
	// stale routing so failover provably runs.
	<-firstDone
	for _, n := range nodes {
		if n.name == victim {
			n.cmd.Process.Kill()
		}
	}
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results <- post(i)
		}(i)
	}
	wg.Wait()
	close(results)

	bySpec := map[int][]serve.JobResult{}
	for o := range results {
		if o.err != nil {
			t.Fatalf("request lost during node kill: %v", o.err)
		}
		bySpec[o.idx] = append(bySpec[o.idx], o.jr)
	}
	for idx, rs := range bySpec {
		for _, r := range rs[1:] {
			if !rs[0].BitwiseEqual(&r) {
				t.Fatalf("spec %d: responses disagree bitwise", idx)
			}
		}
	}
	// One oracle recomputation pins the cluster to mesh.Sim; the ring
	// guarantees at least one spec's primary was the victim for 4
	// specs over 2 nodes unless the hash conspires — find one to prove
	// the killed arc was exercised.
	sawVictimArc := false
	for i := range specs {
		if ring.Primary(specs[i].Fingerprint()) == victim {
			sawVictimArc = true
		}
	}
	if !sawVictimArc {
		t.Log("note: no smoke spec mapped to the victim arc; failover exercised only via stale-route errors")
	}
	fresh, err := fdtd.RunArchetype(specs[0], 2, mesh.Sim, fdtd.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := bySpec[0][0].FieldHash; got != serve.ResultFieldHash(fresh) {
		t.Fatalf("cluster FieldHash %s != mesh.Sim oracle %s", got, serve.ResultFieldHash(fresh))
	}

	// The coordinator noticed the death.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(front + "/v1/nodes")
		if err != nil {
			t.Fatal(err)
		}
		var rows []cluster.NodeStatus
		err = json.NewDecoder(resp.Body).Decode(&rows)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		dead := false
		for _, r := range rows {
			if r.Name == victim && r.State == "dead" {
				dead = true
			}
		}
		if dead {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("victim never reported dead: %+v", rows)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// SIGTERM stops the coordinator cleanly (exit 0).
	if err := coordCmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- coordCmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("archcoord exited %v after SIGTERM\n%s", err, coordLogs.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("archcoord did not stop within 30s\n%s", coordLogs.String())
	}
	if !strings.Contains(coordLogs.String(), "stopped cleanly") {
		t.Fatalf("expected a clean stop, logs:\n%s", coordLogs.String())
	}

	// The surviving node still drains cleanly.
	for _, n := range nodes {
		if n.name == victim {
			continue
		}
		n.cmd.Process.Signal(syscall.SIGTERM)
		nodeDone := make(chan error, 1)
		go func() { nodeDone <- n.cmd.Wait() }()
		select {
		case err := <-nodeDone:
			if err != nil {
				t.Fatalf("node %s exited %v after SIGTERM\n%s", n.name, err, n.logs.String())
			}
		case <-time.After(60 * time.Second):
			t.Fatalf("node %s never drained", n.name)
		}
	}
}
