package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/channel"
	"repro/internal/fault"
	"repro/internal/fdtd"
	"repro/internal/mesh"
	"repro/internal/obs"
)

// pool executes admitted jobs on a fixed set of executors, each running
// one job at a time as one in-process parallel solve (see "The
// executor" in docs/service.md).
type pool struct {
	cfg   Config
	m     *metrics
	queue chan *job
	// complete delivers every job outcome back to the server exactly
	// once (cache fill, waiter wakeup, metrics).
	complete func(jb *job, res *JobResult, err error)

	execs []*executor
	wg    sync.WaitGroup

	// hold is the test seam for deterministic overload: when armed, a
	// dispatcher announces each job it pulled and parks until released,
	// letting a test fill the admission queue behind busy workers.
	hold atomic.Pointer[testHold]
}

type testHold struct {
	entered chan *job     // one send per held job (best effort)
	release chan struct{} // closed to let dispatchers proceed
}

// executor is one dispatcher goroutine.  cur is the network of the job
// it is running, kept reachable so abortAll can wake its ranks.
type executor struct {
	p   *pool
	cur atomic.Pointer[channel.Net[mesh.Msg]]
}

func newPool(cfg Config, m *metrics, complete func(*job, *JobResult, error)) *pool {
	p := &pool{
		cfg:      cfg,
		m:        m,
		queue:    make(chan *job, cfg.QueueDepth),
		complete: complete,
	}
	for i := 0; i < cfg.Workers; i++ {
		ex := &executor{p: p}
		p.execs = append(p.execs, ex)
		p.wg.Add(1)
		go ex.run()
	}
	return p
}

// setHold arms the test-only dispatch gate.
func (p *pool) setHold(h *testHold) { p.hold.Store(h) }

// abortAll aborts every running job's network, waking any rank blocked
// mid-step so hard-cancelled jobs terminate instead of hanging — the
// network half of the cancellation pair (see fault.Canceller).
func (p *pool) abortAll(reason error) {
	for _, ex := range p.execs {
		if net := ex.cur.Load(); net != nil {
			net.Abort(reason)
		}
	}
}

// close shuts the admission queue and waits for every dispatcher to
// wind down.  Jobs already queued are still executed (their cancellers
// may be armed, in which case they fail fast at their first step
// boundary).
func (p *pool) close() {
	close(p.queue)
	p.wg.Wait()
}

// traceTag renders " [trace <id>]" for correlated error text, or ""
// when the job is untraced.
func traceTag(id obs.TraceID) string {
	if id == 0 {
		return ""
	}
	return " [trace " + id.String() + "]"
}

// run is the executor's dispatcher: pull a job, run it, repeat until
// the queue is closed and empty.
func (ex *executor) run() {
	defer ex.p.wg.Done()
	for jb := range ex.p.queue {
		if h := ex.p.hold.Load(); h != nil {
			select {
			case h.entered <- jb:
			default:
			}
			<-h.release
		}
		ex.p.m.batches.Add(1)
		ex.runJob(jb)
	}
}

// runJob executes one job as one supervised mesh.Par solve on a fresh
// in-process network and reports the outcome through pool.complete.
// The per-job timeout pairs the cooperative canceller (step-boundary
// check) with a network abort (wakes ranks blocked mid-step on a peer
// that already cancelled).
func (ex *executor) runJob(jb *job) {
	if err := jb.cancel.Err(); err != nil {
		// Cancelled while queued (drain deadline): don't start it.
		ex.p.complete(jb, nil, fmt.Errorf("serve: job%s cancelled before dispatch: %w", traceTag(jb.trace), err))
		return
	}
	net := channel.NewChanNet[mesh.Msg](ex.p.cfg.P)
	ex.cur.Store(net)
	defer ex.cur.Store(nil)

	col := obs.New(ex.p.cfg.P)
	col.SetTrace(jb.trace)
	opt := fdtd.DefaultOptions()
	opt.Mesh.Obs = col
	opt.Mesh.Transport = net
	opt.Mesh.Workers = 1 // the service's parallelism is executors × P ranks
	opt.Cancel = jb.cancel

	var timer *time.Timer
	if jb.timeout > 0 {
		deadline := &JobTimeoutError{Timeout: jb.timeout}
		timer = time.AfterFunc(jb.timeout, func() {
			jb.cancel.Cancel(deadline)
			net.Abort(deadline)
		})
	}

	start := time.Now()
	res, err := fdtd.RunArchetype(jb.spec, ex.p.cfg.P, mesh.Par, opt)
	// A deadline that fires after the last rank returned does not fail
	// the job, and the network it aborts is this job's alone.
	timedOut := timer != nil && !timer.Stop()
	end := time.Now()
	wall := end.Sub(start)
	col.Finish()
	snap := col.Snapshot()
	ex.p.m.latency.Record(wall)
	ex.p.m.addSnapshot(snap)

	if jb.trace != 0 {
		// Assemble the node-local span bundle: rank-level phase spans
		// from the collector plus service-lane spans for the queue wait
		// and the execution itself.  complete() files it in the store.
		jb.bundle = obs.BundleFromCollector(jb.trace, ex.p.cfg.Name, col,
			obs.ServiceSpan("serve", "queued", jb.admitted, start),
			obs.ServiceSpan("serve", "execute", start, end),
		)
	}

	switch {
	case err == nil:
		ex.p.complete(jb, buildResult(jb, ex.p.cfg.P, res, wall, snap), nil)
	case timedOut:
		ex.p.complete(jb, nil, &JobTimeoutError{Timeout: jb.timeout})
	default:
		if c, ok := fault.AsCancelled(err); ok {
			ex.p.complete(jb, nil, fmt.Errorf("serve: job%s cancelled at step %d: %w", traceTag(jb.trace), c.Step, err))
		} else {
			ex.p.complete(jb, nil, fmt.Errorf("serve: job%s failed: %w", traceTag(jb.trace), err))
		}
	}
}
