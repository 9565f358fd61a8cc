package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/fault"
	"repro/internal/fdtd"
	"repro/internal/mesh"
)

// uniqueSpec returns a fast Version A spec distinguishable by i (the
// source delay perturbs the fingerprint without changing the cost).
func uniqueSpec(i int) fdtd.Spec {
	s := fdtd.SpecSmallA()
	s.Source.Delay = 5 + float64(i)
	return s
}

// longSpec runs long enough to be interrupted reliably: a small grid
// stepped many times.
func longSpec() fdtd.Spec {
	s := fdtd.SpecSmallA()
	s.Steps = 200000
	return s
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

func TestSubmitComputesAndCaches(t *testing.T) {
	s := newTestServer(t, Config{P: 2, Workers: 1})
	spec := fdtd.SpecSmall()

	res, origin, err := s.Submit(spec, SubmitOptions{})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if origin != OriginComputed {
		t.Fatalf("first submit origin = %v, want computed", origin)
	}
	if len(res.Probe) != spec.Steps {
		t.Fatalf("probe has %d samples, want %d", len(res.Probe), spec.Steps)
	}
	if res.Fingerprint != fingerprintString(spec.Fingerprint()) {
		t.Fatalf("fingerprint %s does not match spec %016x", res.Fingerprint, spec.Fingerprint())
	}
	if res.P != 2 {
		t.Fatalf("result ran on P=%d, want 2", res.P)
	}
	if len(res.FarA) == 0 || len(res.FarF) == 0 {
		t.Fatalf("Version C result is missing far fields")
	}

	again, origin, err := s.Submit(spec, SubmitOptions{})
	if err != nil {
		t.Fatalf("cached submit: %v", err)
	}
	if origin != OriginCache {
		t.Fatalf("second submit origin = %v, want cache", origin)
	}
	if !again.BitwiseEqual(res) {
		t.Fatalf("cache returned a result that is not bitwise identical")
	}

	st := s.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 1 || st.JobsOK != 1 {
		t.Fatalf("stats = hits %d misses %d ok %d, want 1/1/1", st.CacheHits, st.CacheMisses, st.JobsOK)
	}
}

// TestServiceMatchesSimRuntime ties the service to Theorem 1 directly:
// the service's execution must reproduce the simulated-parallel runtime
// bit for bit.
func TestServiceMatchesSimRuntime(t *testing.T) {
	s := newTestServer(t, Config{P: 2, Workers: 1})
	for _, spec := range []fdtd.Spec{fdtd.SpecSmall(), fdtd.SpecSmallA()} {
		res, _, err := s.Submit(spec, SubmitOptions{})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		ref, err := fdtd.RunArchetype(spec, 2, mesh.Sim, fdtd.DefaultOptions())
		if err != nil {
			t.Fatalf("reference run: %v", err)
		}
		if len(res.Probe) != len(ref.Probe) || len(res.FarA) != len(ref.FarA) {
			t.Fatalf("probe/far-field lengths %d/%d vs reference %d/%d", len(res.Probe), len(res.FarA), len(ref.Probe), len(ref.FarA))
		}
		for i := range ref.Probe {
			if res.Probe[i] != ref.Probe[i] {
				t.Fatalf("probe[%d] differs from Sim runtime: %g vs %g", i, res.Probe[i], ref.Probe[i])
			}
		}
		for i := range ref.FarA {
			if res.FarA[i] != ref.FarA[i] || res.FarF[i] != ref.FarF[i] {
				t.Fatalf("far field sample %d differs from Sim runtime", i)
			}
		}
		if got, want := res.FieldHash, fingerprintString(ref.FieldHash()); got != want {
			t.Fatalf("Version C %v: field hash %s differs from Sim runtime %s", spec.IsVersionC(), got, want)
		}
	}
}

func TestInvalidSpecRejectedTyped(t *testing.T) {
	s := newTestServer(t, Config{P: 2, Workers: 1})
	bad := fdtd.SpecSmallA()
	bad.Steps = 0
	_, _, err := s.Submit(bad, SubmitOptions{})
	var inv *InvalidJobError
	if !errors.As(err, &inv) {
		t.Fatalf("submit error = %v, want *InvalidJobError", err)
	}
	if s.Stats().RejectedInvalid != 1 {
		t.Fatalf("invalid rejection not counted")
	}
}

func TestCoalescingSharesOneExecution(t *testing.T) {
	s := newTestServer(t, Config{P: 2, Workers: 1, QueueDepth: 4})
	hold := &testHold{entered: make(chan *job, 8), release: make(chan struct{})}
	s.pool.setHold(hold)

	spec := uniqueSpec(1)
	type out struct {
		res    *JobResult
		origin Origin
		err    error
	}
	results := make(chan out, 4)
	go func() {
		r, o, err := s.Submit(spec, SubmitOptions{})
		results <- out{r, o, err}
	}()
	// Wait until the worker is holding the first submission, then pile
	// identical requests on: they must attach, not enqueue.
	select {
	case <-hold.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never picked up the job")
	}
	for i := 0; i < 3; i++ {
		go func() {
			r, o, err := s.Submit(spec, SubmitOptions{})
			results <- out{r, o, err}
		}()
	}
	waitFor(t, func() bool { return s.Stats().Coalesced == 3 })
	close(hold.release)

	var first *JobResult
	coalesced := 0
	for i := 0; i < 4; i++ {
		o := <-results
		if o.err != nil {
			t.Fatalf("submit: %v", o.err)
		}
		if o.origin == OriginCoalesced {
			coalesced++
		}
		if first == nil {
			first = o.res
		} else if !o.res.BitwiseEqual(first) {
			t.Fatalf("coalesced result differs bitwise")
		}
	}
	if coalesced != 3 {
		t.Fatalf("coalesced %d submits, want 3", coalesced)
	}
	if st := s.Stats(); st.JobsOK != 1 {
		t.Fatalf("ran %d jobs for 4 identical submits, want 1", st.JobsOK)
	}
}

func TestOverloadRejectsTyped(t *testing.T) {
	s := newTestServer(t, Config{P: 2, Workers: 1, QueueDepth: 2})
	hold := &testHold{entered: make(chan *job, 8), release: make(chan struct{})}
	s.pool.setHold(hold)

	errs := make(chan error, 8)
	submit := func(i int) {
		_, _, err := s.Submit(uniqueSpec(i), SubmitOptions{})
		errs <- err
	}
	go submit(0)
	select {
	case <-hold.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never picked up the job")
	}
	// Fill both queue slots behind the held worker.
	go submit(1)
	go submit(2)
	waitFor(t, func() bool { return s.Stats().QueueDepth == 2 })

	// The queue is provably full: this submit must bounce, typed.
	_, _, err := s.Submit(uniqueSpec(3), SubmitOptions{})
	o, ok := AsOverloaded(err)
	if !ok {
		t.Fatalf("submit on full queue returned %v, want *OverloadedError", err)
	}
	if o.QueueCap != 2 || o.QueueDepth != 2 {
		t.Fatalf("overload reports %d/%d, want 2/2", o.QueueDepth, o.QueueCap)
	}
	if o.RetryAfter <= 0 {
		t.Fatalf("overload carries no Retry-After estimate")
	}
	if s.Stats().RejectedOverload != 1 {
		t.Fatalf("overload rejection not counted")
	}

	close(hold.release)
	for i := 0; i < 3; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("held submit failed: %v", err)
		}
	}
}

func TestJobTimeoutTypedAndPoolRecovers(t *testing.T) {
	s := newTestServer(t, Config{P: 2, Workers: 1})

	_, _, err := s.Submit(longSpec(), SubmitOptions{Timeout: 100 * time.Millisecond})
	to, ok := AsJobTimeout(err)
	if !ok {
		t.Fatalf("long job returned %v, want *JobTimeoutError", err)
	}
	if to.Timeout != 100*time.Millisecond {
		t.Fatalf("timeout error reports %v", to.Timeout)
	}

	// The aborted job must not wedge the executor: the next job
	// succeeds.
	res, _, err := s.Submit(fdtd.SpecSmallA(), SubmitOptions{})
	if err != nil || res == nil {
		t.Fatalf("submit after timeout: %v", err)
	}
	if st := s.Stats(); st.JobsTimedOut != 1 {
		t.Fatalf("timed-out jobs = %d, want 1", st.JobsTimedOut)
	}
}

// TestJobAfterTimeoutMatchesSim: a job killed mid-step leaves frames
// of its half-finished exchange behind.  None of them may reach the
// next job on the same executor, which must come out bitwise equal to
// the Sim runtime.
func TestJobAfterTimeoutMatchesSim(t *testing.T) {
	s := newTestServer(t, Config{P: 2, Workers: 1})
	if _, _, err := s.Submit(fdtd.SpecSmall(), SubmitOptions{NoCache: true}); err != nil {
		t.Fatalf("warm-up job: %v", err)
	}
	if _, _, err := s.Submit(longSpec(), SubmitOptions{Timeout: 50 * time.Millisecond}); err == nil {
		t.Fatal("long job did not time out")
	} else if _, ok := AsJobTimeout(err); !ok {
		t.Fatalf("long job returned %v, want *JobTimeoutError", err)
	}
	spec := fdtd.SpecSmall()
	res, _, err := s.Submit(spec, SubmitOptions{NoCache: true})
	if err != nil {
		t.Fatalf("job after the timeout: %v", err)
	}
	ref, err := fdtd.RunArchetype(spec, 2, mesh.Sim, fdtd.DefaultOptions())
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if got, want := res.FieldHash, fingerprintString(ref.FieldHash()); got != want {
		t.Fatalf("job after the timeout hashed %s, Sim runtime %s", got, want)
	}
}

// TestJobsLeaveNoGoroutines: every job starts P rank goroutines; a
// cached, a computed, a timed-out and a coalesced job must all leave
// the goroutine count where New left it.
func TestJobsLeaveNoGoroutines(t *testing.T) {
	s := newTestServer(t, Config{P: 2, Workers: 1})
	base := runtime.NumGoroutine()

	for i := 0; i < 2; i++ { // computed, then cached
		if _, _, err := s.Submit(uniqueSpec(0), SubmitOptions{}); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	if _, _, err := s.Submit(longSpec(), SubmitOptions{Timeout: 50 * time.Millisecond}); !isTimeout(err) {
		t.Fatalf("long job returned %v, want *JobTimeoutError", err)
	}
	hold := &testHold{entered: make(chan *job, 1), release: make(chan struct{})}
	s.pool.setHold(hold)
	errs := make(chan error, 2)
	submit := func() {
		_, _, err := s.Submit(uniqueSpec(1), SubmitOptions{})
		errs <- err
	}
	go submit()
	select {
	case <-hold.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never picked up the job")
	}
	go submit()
	waitFor(t, func() bool { return s.Stats().Coalesced == 1 })
	s.pool.setHold(nil)
	close(hold.release)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("coalesced submit: %v", err)
		}
	}
	if st := s.Stats(); st.JobsOK != 2 || st.CacheHits != 1 || st.JobsTimedOut != 1 {
		t.Fatalf("stats = ok %d hits %d timed out %d, want 2/1/1", st.JobsOK, st.CacheHits, st.JobsTimedOut)
	}

	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the jobs, %d after New", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestOversizedSpecRejected: a grid whose cell count cannot be
// allocated is a bad spec, not a job.  Admitting it would stop the
// whole process with an out-of-memory error.
func TestOversizedSpecRejected(t *testing.T) {
	s := newTestServer(t, Config{P: 2, Workers: 1})
	huge := fdtd.SpecSmall()
	huge.NX, huge.NY, huge.NZ = 1<<21, 1<<21, 1<<21
	var inv *InvalidJobError
	if _, _, err := s.Submit(huge, SubmitOptions{}); !errors.As(err, &inv) {
		t.Fatalf("submit error = %v, want *InvalidJobError", err)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, err := json.Marshal(JobRequest{Spec: &huge})
	if err != nil {
		t.Fatal(err)
	}
	resp, raw := postJob(t, ts, string(body))
	var e errorResponse
	if err := json.Unmarshal(raw, &e); err != nil || resp.StatusCode != http.StatusBadRequest || e.Kind != "invalid" {
		t.Fatalf("POST oversized spec -> %d %s, want 400 invalid", resp.StatusCode, raw)
	}

	if _, _, err := s.Submit(fdtd.SpecSmallA(), SubmitOptions{}); err != nil {
		t.Fatalf("normal job after the rejection: %v", err)
	}
	if st := s.Stats(); st.RejectedInvalid != 2 || st.JobsOK != 1 {
		t.Fatalf("stats = invalid %d ok %d, want 2/1", st.RejectedInvalid, st.JobsOK)
	}
}

// TestDrainDeadlineCancelsInFlight is the mid-step cancellation error
// path: a hard drain must terminate a running job with a typed
// cancellation, not hang.
func TestDrainDeadlineCancelsInFlight(t *testing.T) {
	s := New(Config{P: 2, Workers: 1})
	errc := make(chan error, 1)
	go func() {
		_, _, err := s.Submit(longSpec(), SubmitOptions{Timeout: -1})
		errc <- err
	}()
	waitFor(t, func() bool { return s.Stats().JobsInFlight == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hard drain returned %v, want deadline exceeded", err)
	}
	select {
	case err := <-errc:
		if err == nil {
			t.Fatalf("hard-cancelled job reported success")
		}
		// The job dies either at a step boundary (*fault.Cancelled) or
		// woken out of a blocked receive (*channel.TransportError); both
		// wrap the drain reason, so the deadline is reachable via Is.
		var c *fault.Cancelled
		var te *channel.TransportError
		if !errors.As(err, &c) && !errors.As(err, &te) {
			t.Fatalf("cancelled job error = %v, want a typed cancellation or transport abort", err)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("cancelled job error %v does not wrap the drain deadline", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled job never returned — mid-step cancellation hung")
	}
}

func TestBatchingCoalescesSmallJobs(t *testing.T) {
	s := newTestServer(t, Config{P: 2, Workers: 1, QueueDepth: 8, BatchMax: 4})
	hold := &testHold{entered: make(chan *job, 8), release: make(chan struct{})}
	s.pool.setHold(hold)

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := s.Submit(uniqueSpec(10), SubmitOptions{})
		errs <- err
	}()
	select {
	case <-hold.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never picked up the job")
	}
	// Three more distinct small jobs queue up behind the held one; when
	// released, the dispatcher should pull them into one batch.
	for i := 11; i < 14; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, err := s.Submit(uniqueSpec(i), SubmitOptions{})
			errs <- err
		}(i)
	}
	waitFor(t, func() bool { return s.Stats().QueueDepth == 3 })
	s.pool.setHold(nil)
	close(hold.release)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	st := s.Stats()
	if st.JobsOK != 4 {
		t.Fatalf("jobs ok = %d, want 4", st.JobsOK)
	}
	if st.BatchedJobs < 3 {
		t.Fatalf("batched jobs = %d, want >= 3 (batches = %d)", st.BatchedJobs, st.Batches)
	}
}

// TestServiceEndToEnd is the acceptance test: >= 8 concurrent jobs
// (with duplicates) against a 2-worker pool; cached results bitwise
// identical to fresh recomputation; typed overload rejection while the
// queue is provably full; graceful shutdown that drains in-flight jobs
// without leaking goroutines.
func TestServiceEndToEnd(t *testing.T) {
	before := runtime.NumGoroutine()

	s := New(Config{P: 2, Workers: 2, QueueDepth: 8})

	// Phase 1: 10 concurrent submissions over 4 distinct specs.
	type out struct {
		idx    int
		res    *JobResult
		origin Origin
		err    error
	}
	jobs := []int{0, 1, 2, 3, 0, 1, 2, 3, 0, 1} // duplicates by design
	results := make(chan out, len(jobs))
	var wg sync.WaitGroup
	for i, sp := range jobs {
		wg.Add(1)
		go func(i, sp int) {
			defer wg.Done()
			r, o, err := s.Submit(uniqueSpec(sp), SubmitOptions{})
			results <- out{idx: sp, res: r, origin: o, err: err}
		}(i, sp)
	}
	wg.Wait()
	close(results)
	bySpec := map[int][]*JobResult{}
	for o := range results {
		if o.err != nil {
			t.Fatalf("concurrent submit (spec %d): %v", o.idx, o.err)
		}
		bySpec[o.idx] = append(bySpec[o.idx], o.res)
	}
	for sp, rs := range bySpec {
		for _, r := range rs[1:] {
			if !r.BitwiseEqual(rs[0]) {
				t.Fatalf("spec %d: concurrent duplicates disagree bitwise", sp)
			}
		}
	}

	// Phase 2: cache hits must be bitwise identical to a forced fresh
	// recomputation (Theorem 1's cache-soundness claim).
	for sp := 0; sp < 4; sp++ {
		cached, origin, err := s.Submit(uniqueSpec(sp), SubmitOptions{})
		if err != nil {
			t.Fatalf("cached submit: %v", err)
		}
		if origin != OriginCache {
			t.Fatalf("spec %d resubmit origin = %v, want cache", sp, origin)
		}
		fresh, origin, err := s.Submit(uniqueSpec(sp), SubmitOptions{NoCache: true})
		if err != nil {
			t.Fatalf("fresh submit: %v", err)
		}
		if origin != OriginComputed {
			t.Fatalf("no-cache submit origin = %v, want computed", origin)
		}
		if !cached.BitwiseEqual(fresh) {
			t.Fatalf("spec %d: cached result is not bitwise identical to recomputation", sp)
		}
	}

	// Phase 3: typed backpressure while the queue is provably full.
	hold := &testHold{entered: make(chan *job, 16), release: make(chan struct{})}
	s.pool.setHold(hold)
	held := make(chan error, 16)
	for i := 0; i < 2; i++ {
		go func(i int) {
			_, _, err := s.Submit(uniqueSpec(100+i), SubmitOptions{})
			held <- err
		}(i)
	}
	for i := 0; i < 2; i++ {
		select {
		case <-hold.entered:
		case <-time.After(10 * time.Second):
			t.Fatal("workers never picked up the hold jobs")
		}
	}
	for i := 0; i < 8; i++ {
		go func(i int) {
			_, _, err := s.Submit(uniqueSpec(200+i), SubmitOptions{})
			held <- err
		}(i)
	}
	waitFor(t, func() bool { return s.Stats().QueueDepth == 8 })
	if _, _, err := s.Submit(uniqueSpec(999), SubmitOptions{}); !isOverloaded(err) {
		t.Fatalf("submit on full queue returned %v, want *OverloadedError", err)
	}
	s.pool.setHold(nil)
	close(hold.release)
	for i := 0; i < 10; i++ {
		if err := <-held; err != nil {
			t.Fatalf("held submit failed: %v", err)
		}
	}

	// Phase 4: graceful drain, then no goroutine leak.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	if _, _, err := s.Submit(uniqueSpec(0), SubmitOptions{NoCache: true}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after shutdown returned %v, want ErrDraining", err)
	}
	waitFor(t, func() bool { return runtime.NumGoroutine() <= before+2 })
}

func isOverloaded(err error) bool { _, ok := AsOverloaded(err); return ok }

func isTimeout(err error) bool { _, ok := AsJobTimeout(err); return ok }

// waitFor polls cond for up to 10s — used where the interesting state
// is reached asynchronously but guaranteed.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition never reached")
}

func TestCacheLRUEviction(t *testing.T) {
	c := newCache(2)
	r := func(i int) *encoded { return &encoded{res: &JobResult{Fingerprint: fmt.Sprint(i)}} }
	c.put(1, r(1))
	c.put(2, r(2))
	if _, ok := c.get(1); !ok { // refresh 1; 2 becomes LRU
		t.Fatal("entry 1 missing")
	}
	c.put(3, r(3))
	if _, ok := c.get(2); ok {
		t.Fatal("LRU entry 2 should have been evicted")
	}
	if _, ok := c.get(1); !ok {
		t.Fatal("refreshed entry 1 evicted")
	}
	if _, ok := c.get(3); !ok {
		t.Fatal("new entry 3 missing")
	}
	if c.len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", c.len())
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.P != 2 || c.Workers != 2 || c.QueueDepth != 16 ||
		c.DefaultTimeout != 30*time.Second || c.CacheEntries != 256 ||
		c.BatchMax != 4 || c.BatchCells != 32768 {
		t.Fatalf("unexpected defaults: %+v", c)
	}
	if d := (Config{CacheEntries: -1}).withDefaults(); d.CacheEntries != 0 {
		t.Fatalf("negative CacheEntries should disable the cache, got %d", d.CacheEntries)
	}
}
