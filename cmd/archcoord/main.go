// Command archcoord fronts a set of archserve nodes as one service: it
// shards each job to a stable node by spec fingerprint (consistent
// hashing, so node-side result caches shard for free), health-checks
// the roster, retries with backoff, and fails over to ring replicas
// when a node dies — answering degraded rather than failing while any
// node lives.  Sound by Theorem 1: any node serves any job bitwise
// identically.
//
//	archcoord -addr :8090 -nodes n0=http://127.0.0.1:8081,n1=http://127.0.0.1:8082
//
// Endpoints: POST /v1/jobs (single-node request shape, wrapped
// response with node/degraded provenance), GET /v1/stats, GET
// /v1/nodes, GET /healthz.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/client"
)

// parseNodes reads the -nodes flag: comma-separated name=url pairs.
func parseNodes(s string) ([]cluster.Node, error) {
	if s == "" {
		return nil, fmt.Errorf("-nodes is required (name=url,name=url,...)")
	}
	var out []cluster.Node
	for _, part := range strings.Split(s, ",") {
		name, url, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("bad node %q (want name=url)", part)
		}
		out = append(out, cluster.Node{Name: name, URL: strings.TrimSuffix(url, "/")})
	}
	return out, nil
}

func main() {
	var (
		addr          = flag.String("addr", "127.0.0.1:8090", "HTTP listen address")
		nodesFlag     = flag.String("nodes", "", "cluster roster: name=url,name=url,...")
		probeInterval = flag.Duration("probe-interval", 500*time.Millisecond, "health-check period")
		probeTimeout  = flag.Duration("probe-timeout", 2*time.Second, "health-check round-trip bound")
		suspectAfter  = flag.Int("suspect-after", 1, "consecutive probe failures before a node is suspect")
		deadAfter     = flag.Int("dead-after", 3, "consecutive probe failures before a node is dead")
		rejoinAfter   = flag.Int("rejoin-after", 2, "consecutive probe successes before a dead node rejoins")
		vnodes        = flag.Int("vnodes", 0, "virtual nodes per node on the hash ring (0 = default)")
		maxAttempts   = flag.Int("max-attempts", 4, "total forwarding attempts per job")
		attemptTO     = flag.Duration("attempt-timeout", 60*time.Second, "per-attempt deadline")
		baseBackoff   = flag.Duration("base-backoff", 25*time.Millisecond, "first full-cycle backoff")
		maxBackoff    = flag.Duration("max-backoff", time.Second, "backoff ceiling")
		maxRetryAfter = flag.Duration("max-retry-after", 2*time.Second, "cap on honoured Retry-After hints")
	)
	flag.Parse()

	nodes, err := parseNodes(*nodesFlag)
	if err != nil {
		log.Fatalf("archcoord: %v", err)
	}
	coord, err := cluster.New(cluster.Config{
		Nodes: nodes,
		Member: cluster.MemberConfig{
			ProbeInterval: *probeInterval,
			ProbeTimeout:  *probeTimeout,
			SuspectAfter:  *suspectAfter,
			DeadAfter:     *deadAfter,
			RejoinAfter:   *rejoinAfter,
			VNodes:        *vnodes,
		},
		Client: client.Policy{
			MaxAttempts:       *maxAttempts,
			PerAttemptTimeout: *attemptTO,
			BaseBackoff:       *baseBackoff,
			MaxBackoff:        *maxBackoff,
			MaxRetryAfter:     *maxRetryAfter,
		},
		Seed: time.Now().UnixNano(),
	})
	if err != nil {
		log.Fatalf("archcoord: %v", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("archcoord: listen %s: %v", *addr, err)
	}
	httpSrv := &http.Server{Handler: coord.Handler()}
	log.Printf("archcoord: coordinating %d nodes on http://%s (probe=%v suspect=%d dead=%d)",
		len(nodes), ln.Addr(), *probeInterval, *suspectAfter, *deadAfter)

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatalf("archcoord: serve: %v", err)
	case s := <-sig:
		log.Printf("archcoord: %v: shutting down", s)
	}

	// The coordinator holds no job state (Theorem 1 makes the nodes'
	// answers interchangeable, so there is nothing to hand off): just
	// stop accepting, finish in-flight forwards, stop probing.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	httpSrv.Shutdown(ctx)
	coord.Close()
	log.Printf("archcoord: stopped cleanly")
}
