// Command archserve exposes the archetype runtime as a long-running
// HTTP job service: POST a simulation spec (or a named preset) to
// /v1/jobs and get its result, computed by a pool of executors (see
// docs/service.md) with admission control and fingerprint-keyed result
// caching (sound by Theorem 1: any execution of the same spec is
// bitwise identical).
//
//	archserve -addr :8080 -p 2 -workers 2 -queue 16
//
// Endpoints: POST /v1/jobs, GET /v1/stats, GET /healthz, GET /metrics
// (Prometheus text).  SIGINT/SIGTERM triggers a graceful drain bounded
// by -drain-timeout; a second signal aborts immediately.
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
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "HTTP listen address")
		p            = flag.Int("p", 2, "ranks per job, one goroutine each (see docs/service.md)")
		workers      = flag.Int("workers", 2, "executors: jobs run at once")
		queue        = flag.Int("queue", 16, "admission queue depth")
		timeout      = flag.Duration("job-timeout", 30*time.Second, "default per-job deadline")
		cacheN       = flag.Int("cache", 256, "result cache entries (negative disables)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight jobs")
	)
	flag.Parse()

	srv := serve.New(serve.Config{
		P:              *p,
		Workers:        *workers,
		QueueDepth:     *queue,
		DefaultTimeout: *timeout,
		CacheEntries:   *cacheN,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("archserve: listen %s: %v", *addr, err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	cfg := srv.Config()
	log.Printf("archserve: serving on http://%s (p=%d workers=%d queue=%d cache=%d)",
		ln.Addr(), cfg.P, cfg.Workers, cfg.QueueDepth, cfg.CacheEntries)

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatalf("archserve: serve: %v", err)
	case s := <-sig:
		log.Printf("archserve: %v: draining (up to %v; signal again to abort)", s, *drainTimeout)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	go func() {
		<-sig
		log.Printf("archserve: second signal: aborting drain")
		cancel()
	}()

	// Drain the service first and close the listener last, so the
	// requests whose jobs are still in flight get their responses.
	drainErr := srv.Shutdown(ctx)
	httpSrv.Shutdown(ctx)
	if drainErr != nil {
		log.Printf("archserve: drain incomplete: %v", drainErr)
		fmt.Fprintln(os.Stderr, "archserve: exited with cancelled jobs")
		os.Exit(1)
	}
	log.Printf("archserve: drained cleanly")
}
