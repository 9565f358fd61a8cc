// Package serve turns the archetype runtime into a long-running job
// service: clients POST simulation specs, the server executes them on
// a pool of executors, each job one in-process parallel solve (see "The
// executor" in docs/service.md), and returns the result.
//
// Three properties shape the design:
//
//   - Admission control: a bounded queue rejects excess load with a
//     typed OverloadedError (HTTP 429 + Retry-After) instead of
//     queueing without bound.
//   - Result caching: results are cached by spec fingerprint.  Theorem
//     1 (determinacy) makes this sound — every maximal execution of a
//     spec reaches the same bitwise-identical result, so a cache hit is
//     interchangeable with recomputation, and identical in-flight
//     requests can share one execution (coalescing).
//   - Bounded failure: per-job timeouts pair a cooperative canceller
//     with a network abort so runaway jobs terminate instead of
//     wedging an executor, and graceful shutdown drains in-flight
//     work before closing the pool.
package serve

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/fdtd"
	"repro/internal/obs"
)

// Config sizes the service.  The zero value is unusable; call
// withDefaults (done by New) or fill every field.
type Config struct {
	// P is the number of ranks each job runs on.  Default 2.
	P int
	// Workers is the number of executors — jobs running concurrently.
	// Default 2.
	Workers int
	// QueueDepth bounds the admission queue; a submit finding it full
	// is rejected with *OverloadedError.  Default 16.
	QueueDepth int
	// DefaultTimeout applies to jobs that do not set their own.
	// Default 30s.
	DefaultTimeout time.Duration
	// CacheEntries bounds the LRU result cache; 0 uses the default
	// (DefaultCacheEntries), negative disables caching.
	CacheEntries int
	// Name identifies this node in trace bundles and correlated logs.
	// Default "archserve".
	Name string
}

func (c Config) withDefaults() Config {
	if c.P <= 0 {
		c.P = 2
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = DefaultCacheEntries
	}
	if c.CacheEntries < 0 {
		c.CacheEntries = 0
	}
	if c.Name == "" {
		c.Name = "archserve"
	}
	return c
}

// Origin says where a submit's result came from.
type Origin int

// Result origins.
const (
	// OriginComputed: this submit ran the job.
	OriginComputed Origin = iota
	// OriginCache: answered from the result cache without running.
	OriginCache
	// OriginCoalesced: attached to an identical job already in flight.
	OriginCoalesced
)

func (o Origin) String() string {
	switch o {
	case OriginComputed:
		return "computed"
	case OriginCache:
		return "cache"
	case OriginCoalesced:
		return "coalesced"
	}
	return "Origin(?)"
}

// SubmitOptions tunes one submission.
type SubmitOptions struct {
	// Timeout overrides Config.DefaultTimeout for this job; zero keeps
	// the default, negative disables the deadline.
	Timeout time.Duration
	// NoCache bypasses both the result cache and in-flight coalescing:
	// the job always computes fresh.  The result is still not stored.
	NoCache bool
	// Trace is the request's trace id (minted upstream by the cluster
	// coordinator, or by the HTTP layer for direct submissions).  Zero
	// disables tracing for this job.
	Trace obs.TraceID
}

// Server is the archetype job service.
type Server struct {
	cfg    Config
	m      *metrics
	cache  *Cache[*encoded]
	pool   *pool
	traces *obs.TraceStore
	mint   func() obs.TraceID // node-local trace ids for untraced submits

	requests RequestReader // POST /v1/jobs bodies, repeats decoded once

	mu       sync.Mutex
	draining bool
	inflight map[uint64]*job   // fingerprint -> shared in-flight job (coalescing)
	all      map[*job]struct{} // every admitted, uncompleted job (drain cancel)
	jobs     sync.WaitGroup
	nextID   atomic.Uint64
	closed   atomic.Bool
}

// New builds and starts a server: the executors start immediately.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		m:        &metrics{},
		cache:    NewCache[*encoded](cfg.CacheEntries),
		traces:   obs.NewTraceStore(),
		inflight: make(map[uint64]*job),
		all:      make(map[*job]struct{}),
	}
	// Seed the node-local trace mint from the node name so two
	// standalone nodes do not mint colliding id sequences; cluster
	// deployments mint at the coordinator and never hit this source.
	h := fnv.New64a()
	h.Write([]byte(cfg.Name))
	s.mint = obs.NewTraceSource(int64(h.Sum64()))
	s.pool = newPool(cfg, s.m, s.complete)
	return s
}

// Config returns the server's effective (defaulted) configuration.
func (s *Server) Config() Config { return s.cfg }

// Submit runs spec on the pool and returns its result, which may come
// from the cache or from an identical in-flight job — by Theorem 1
// those are bitwise indistinguishable from computing fresh.  Typed
// failures: *InvalidJobError (bad spec), *OverloadedError (queue
// full), ErrDraining (shutting down), *JobTimeoutError (deadline).
// Submit blocks until the result is available or the job fails.
func (s *Server) Submit(spec fdtd.Spec, opts SubmitOptions) (*JobResult, Origin, error) {
	out, origin, err := s.submit(spec, opts)
	if err != nil {
		return nil, origin, err
	}
	return out.res, origin, nil
}

// submit is Submit returning the result with its encoding, which the
// HTTP layer writes as is.
func (s *Server) submit(spec fdtd.Spec, opts SubmitOptions) (*encoded, Origin, error) {
	if err := fdtd.ValidateForP(spec, s.cfg.P); err != nil {
		s.m.rejectedBad.Add(1)
		return nil, OriginComputed, &InvalidJobError{Reason: err}
	}
	fp := spec.Fingerprint()
	if !opts.NoCache {
		if out, ok := s.cache.Get(fp); ok {
			s.m.cacheHits.Add(1)
			s.storeServiceTrace(opts.Trace, "cache", time.Now())
			return out, OriginCache, nil
		}
	}

	timeout := opts.Timeout
	switch {
	case timeout == 0:
		timeout = s.cfg.DefaultTimeout
	case timeout < 0:
		timeout = 0
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.m.rejectedDrain.Add(1)
		return nil, OriginComputed, ErrDraining
	}
	if !opts.NoCache {
		if existing, ok := s.inflight[fp]; ok {
			s.mu.Unlock()
			s.m.coalesced.Add(1)
			waitStart := time.Now()
			<-existing.done
			s.storeServiceTrace(opts.Trace, "coalesced", waitStart)
			return existing.out, OriginCoalesced, existing.err
		}
	}
	jb := &job{
		id:       s.nextID.Add(1),
		spec:     spec,
		fp:       fp,
		timeout:  timeout,
		noCache:  opts.NoCache,
		shared:   !opts.NoCache,
		trace:    opts.Trace,
		admitted: time.Now(),
		cancel:   fault.NewCanceller(),
		done:     make(chan struct{}),
	}
	if jb.shared {
		s.inflight[fp] = jb
	}
	s.all[jb] = struct{}{}
	s.jobs.Add(1)
	s.mu.Unlock()

	select {
	case s.pool.queue <- jb:
		s.m.cacheMisses.Add(1)
		s.m.jobsInFlight.Add(1)
	default:
		// Queue full: undo the registration, reject with backpressure.
		s.mu.Lock()
		if jb.shared && s.inflight[fp] == jb {
			delete(s.inflight, fp)
		}
		delete(s.all, jb)
		s.mu.Unlock()
		s.jobs.Done()
		s.m.rejectedLoad.Add(1)
		return nil, OriginComputed, &OverloadedError{
			QueueDepth: len(s.pool.queue),
			QueueCap:   cap(s.pool.queue),
			RetryAfter: s.retryAfter(),
		}
	}

	<-jb.done
	return jb.out, OriginComputed, jb.err
}

// retryAfter estimates when a rejected client should try again: the
// mean job wall time scaled by how many queue "generations" are ahead,
// with ±25% jitter so the clients rejected in one overload window do
// not come back in lockstep and collide again (the 429 thundering
// herd).  The global rand source is goroutine-safe.
func (s *Server) retryAfter() time.Duration {
	avg := s.m.avgWall(time.Second)
	gens := time.Duration(s.cfg.QueueDepth/s.cfg.Workers + 1)
	est := avg * gens
	est = est*3/4 + time.Duration(rand.Int63n(int64(est/2)+1))
	if est < time.Second {
		est = time.Second
	}
	if est > 30*time.Second {
		est = 30 * time.Second
	}
	return est
}

// storeServiceTrace records a one-span bundle for a request answered
// without reaching the pool (cache hit, coalesced wait).  No-op for
// untraced requests.
func (s *Server) storeServiceTrace(id obs.TraceID, label string, start time.Time) {
	if id == 0 {
		return
	}
	s.traces.Put(obs.TraceBundle{
		Trace:  id.String(),
		Source: s.cfg.Name,
		P:      s.cfg.P,
		Spans:  []obs.TraceSpan{obs.ServiceSpan("serve", label, start, time.Now())},
	})
}

// complete is the pool's single exit point for job outcomes.  A
// computed result is encoded here, before anything can share it: the
// cache, coalesced waiters and the submitter all get the one encoding.
func (s *Server) complete(jb *job, res *JobResult, err error) {
	var out *encoded
	if err == nil {
		out, err = encodeResult(res)
	}
	s.mu.Lock()
	if jb.shared && s.inflight[jb.fp] == jb {
		delete(s.inflight, jb.fp)
	}
	delete(s.all, jb)
	s.mu.Unlock()

	if jb.bundle.Trace != "" {
		s.traces.Put(jb.bundle)
	}
	s.m.jobsInFlight.Add(-1)
	switch {
	case err == nil:
		s.m.jobsOK.Add(1)
		if !jb.noCache {
			s.cache.Put(jb.fp, out)
		}
	default:
		if _, ok := AsJobTimeout(err); ok {
			s.m.jobsTimedOut.Add(1)
		} else {
			s.m.jobsFailed.Add(1)
		}
	}
	// Waiters wake last: a caller that resubmits the moment its job
	// returns must find the cache filled and the counters settled.
	jb.out, jb.err = out, err
	close(jb.done)
	s.jobs.Done()
}

// Shutdown drains the server: new submissions are rejected with
// ErrDraining, in-flight and queued jobs run to completion, then the
// executors wind down.  If ctx expires first, remaining jobs are
// hard-cancelled — cancellers armed and running jobs' networks aborted
// (see docs/service.md), so blocked ranks terminate with typed
// errors rather than hang — and ctx.Err() is returned after the pool
// is still fully closed.  Shutdown is idempotent; concurrent calls
// after the first return nil immediately.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if already {
		return nil
	}

	done := make(chan struct{})
	go func() {
		s.jobs.Wait()
		close(done)
	}()

	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		reason := fmt.Errorf("serve: drain deadline exceeded: %w", ctx.Err())
		s.mu.Lock()
		for jb := range s.all {
			jb.cancel.Cancel(reason)
		}
		s.mu.Unlock()
		s.pool.abortAll(reason)
		<-done
	}
	s.pool.close()
	s.closed.Store(true)
	return err
}

// Stats is a point-in-time summary of the service, served as JSON.
type Stats struct {
	P                 int   `json:"p"`
	Workers           int   `json:"workers"`
	QueueDepth        int   `json:"queue_depth"`
	QueueCap          int   `json:"queue_capacity"`
	Draining          bool  `json:"draining"`
	JobsInFlight      int64 `json:"jobs_inflight"`
	JobsOK            int64 `json:"jobs_ok"`
	JobsFailed        int64 `json:"jobs_failed"`
	JobsTimedOut      int64 `json:"jobs_timed_out"`
	CacheEntries      int   `json:"cache_entries"`
	CacheHits         int64 `json:"cache_hits"`
	CacheMisses       int64 `json:"cache_misses"`
	CacheEvictions    int64 `json:"cache_evictions"`
	Coalesced         int64 `json:"coalesced"`
	RejectedOverload  int64 `json:"rejected_overload"`
	RejectedDraining  int64 `json:"rejected_draining"`
	RejectedInvalid   int64 `json:"rejected_invalid"`
	Batches           int64 `json:"batches"`            // dispatches, one per job run
	BatchedJobs       int64 `json:"batched_jobs"`       // always 0: jobs are not batched; kept for the benchmark, which reads it
	TransportRebuilds int64 `json:"transport_rebuilds"` // always 0: each job has its own network; kept for the benchmark, which reads it
	// JobLatency digests the completed-job wall-time histogram.
	JobLatency LatencySummary `json:"job_latency"`
	// LoadScore is admitted-but-uncompleted jobs (queued + executing)
	// per executor — the one-number load signal a cluster coordinator
	// uses for least-loaded placement tiebreaks.
	LoadScore float64 `json:"load_score"`
}

// Stats snapshots the service counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	return Stats{
		P:                s.cfg.P,
		Workers:          s.cfg.Workers,
		QueueDepth:       len(s.pool.queue),
		QueueCap:         cap(s.pool.queue),
		Draining:         draining,
		JobsInFlight:     s.m.jobsInFlight.Load(),
		JobsOK:           s.m.jobsOK.Load(),
		JobsFailed:       s.m.jobsFailed.Load(),
		JobsTimedOut:     s.m.jobsTimedOut.Load(),
		CacheEntries:     s.cache.Len(),
		CacheHits:        s.m.cacheHits.Load(),
		CacheMisses:      s.m.cacheMisses.Load(),
		CacheEvictions:   s.cache.Evicted(),
		Coalesced:        s.m.coalesced.Load(),
		RejectedOverload: s.m.rejectedLoad.Load(),
		RejectedDraining: s.m.rejectedDrain.Load(),
		RejectedInvalid:  s.m.rejectedBad.Load(),
		Batches:          s.m.batches.Load(),
		JobLatency:       s.m.latencySummary(),
		LoadScore:        float64(s.m.jobsInFlight.Load()) / float64(s.cfg.Workers),
	}
}
