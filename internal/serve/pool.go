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

// pool executes admitted jobs on a fixed set of warm executors.  Each
// executor owns one persistent P-rank loopback mesh transport and P
// long-lived rank goroutines, so a job pays no process or socket setup:
// it is handed to already-connected workers (mesh.RunWorker per rank),
// exactly the way the -procs backend runs, minus the spawning.  Per-job
// state (obs collector, canceller) rides in Options: it is carried per
// call, never installed on the transport.
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

// rankTask is one rank's share of one job dispatch.
type rankTask struct {
	spec fdtd.Spec
	opt  fdtd.Options
	tr   channel.Transport[mesh.Msg]
}

type rankResult struct {
	rank int
	res  *fdtd.Result
	err  error
}

// executor is one warm worker: a persistent transport plus P resident
// rank goroutines fed through per-rank task channels.
type executor struct {
	id      int
	p       *pool
	tr      *channel.SocketTransport[mesh.Msg]
	built   bool // a transport has been built before (so the next build is a rebuild)
	cur     atomic.Pointer[channel.SocketTransport[mesh.Msg]]
	tasks   []chan rankTask
	results chan rankResult
	ranks   sync.WaitGroup
}

func newPool(cfg Config, m *metrics, complete func(*job, *JobResult, error)) *pool {
	p := &pool{
		cfg:      cfg,
		m:        m,
		queue:    make(chan *job, cfg.QueueDepth),
		complete: complete,
	}
	for i := 0; i < cfg.Workers; i++ {
		ex := &executor{
			id:      i,
			p:       p,
			tasks:   make([]chan rankTask, cfg.P),
			results: make(chan rankResult, cfg.P),
		}
		for r := 0; r < cfg.P; r++ {
			ex.tasks[r] = make(chan rankTask)
			ex.ranks.Add(1)
			go ex.rankLoop(r)
		}
		p.execs = append(p.execs, ex)
		p.wg.Add(1)
		go ex.run()
	}
	return p
}

// setHold arms the test-only dispatch gate.
func (p *pool) setHold(h *testHold) { p.hold.Store(h) }

// abortAll poisons every live warm transport, waking any rank blocked
// mid-step so hard-cancelled jobs terminate instead of hanging — the
// transport half of the cancellation pair (see fault.Canceller).
func (p *pool) abortAll(reason error) {
	for _, ex := range p.execs {
		if tr := ex.cur.Load(); tr != nil {
			tr.Abort(reason)
		}
	}
}

// close shuts the admission queue and waits for every dispatcher, rank
// goroutine and transport to wind down.  Jobs already queued are still
// executed (their cancellers may be armed, in which case they fail
// fast at their first step boundary).
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

// rankLoop is the resident goroutine for one rank of one executor.
func (ex *executor) rankLoop(rank int) {
	defer ex.ranks.Done()
	for task := range ex.tasks[rank] {
		res, err := fdtd.RunArchetypeWorker(task.spec, rank, task.tr, task.opt)
		ex.results <- rankResult{rank: rank, res: res, err: err}
	}
}

// run is the executor's dispatcher: pull a job, opportunistically
// coalesce further small jobs into the same dispatch, execute the
// batch back-to-back on the warm mesh.
func (ex *executor) run() {
	defer func() {
		for _, ch := range ex.tasks {
			close(ch)
		}
		ex.ranks.Wait()
		if ex.tr != nil {
			ex.tr.Close()
			ex.cur.Store(nil)
		}
		ex.p.wg.Done()
	}()
	var carry *job // non-small job pulled while extending a batch
	open := true
	for open || carry != nil {
		var jb *job
		if carry != nil {
			jb, carry = carry, nil
		} else {
			jb, open = <-ex.p.queue
			if !open {
				return
			}
		}
		if h := ex.p.hold.Load(); h != nil {
			select {
			case h.entered <- jb:
			default:
			}
			<-h.release
		}
		batch := []*job{jb}
		if open && jb.small(ex.p.cfg.BatchCells) {
			for len(batch) < ex.p.cfg.BatchMax {
				var nb *job
				select {
				case nb, open = <-ex.p.queue:
					if !open {
						nb = nil
					}
				default:
				}
				if nb == nil {
					break
				}
				if !nb.small(ex.p.cfg.BatchCells) {
					carry = nb
					break
				}
				batch = append(batch, nb)
			}
		}
		ex.p.m.batches.Add(1)
		if len(batch) > 1 {
			ex.p.m.batchedJobs.Add(int64(len(batch)))
		}
		for _, b := range batch {
			ex.runJob(b)
		}
	}
}

// ensureTransport returns the executor's warm mesh, building a fresh
// one if the previous job poisoned or dirtied it.
func (ex *executor) ensureTransport() (*channel.SocketTransport[mesh.Msg], error) {
	if ex.tr != nil {
		return ex.tr, nil
	}
	tr, err := channel.NewLoopbackMesh[mesh.Msg](ex.p.cfg.P, ex.p.cfg.Network, mesh.WireCodec(), channel.SocketOptions{})
	if err != nil {
		return nil, fmt.Errorf("serve: executor %d: build mesh: %w", ex.id, err)
	}
	if ex.built {
		ex.p.m.rebuilds.Add(1)
	}
	ex.built = true
	ex.tr = tr
	ex.cur.Store(tr)
	return tr, nil
}

// retireTransport discards a transport that can no longer be trusted
// for the next job: it failed, was aborted, or still has traffic
// buffered from a run that died mid-flight.
func (ex *executor) retireTransport() {
	if ex.tr == nil {
		return
	}
	ex.cur.Store(nil)
	ex.tr.Close()
	ex.tr = nil
}

// runJob executes one job across the executor's P resident ranks and
// reports the outcome through pool.complete.  Per-job timeout pairs the
// cooperative canceller (step-boundary check) with a transport abort
// (wakes ranks blocked mid-step on a peer that already cancelled);
// either alone can leave drifted ranks hanging.
func (ex *executor) runJob(jb *job) {
	if err := jb.cancel.Err(); err != nil {
		// Cancelled while queued (drain deadline): don't touch the mesh.
		ex.p.complete(jb, nil, fmt.Errorf("serve: job%s cancelled before dispatch: %w", traceTag(jb.trace), err))
		return
	}
	tr, err := ex.ensureTransport()
	if err != nil {
		ex.p.complete(jb, nil, err)
		return
	}

	col := obs.New(ex.p.cfg.P)
	col.SetTrace(jb.trace)
	tr.SetTrace(uint64(jb.trace)) // tag transport failures with this job's trace
	opt := fdtd.DefaultOptions()
	opt.Mesh.Obs = col
	opt.Cancel = jb.cancel

	// The timeout fires on a timer goroutine; tmu makes it atomic with
	// respect to job completion, so a deadline landing after the last
	// rank returned cannot poison the transport behind the reuse check.
	var tmu sync.Mutex
	var timedOut, finished bool
	var timer *time.Timer
	if jb.timeout > 0 {
		deadline := &JobTimeoutError{Timeout: jb.timeout}
		timer = time.AfterFunc(jb.timeout, func() {
			tmu.Lock()
			defer tmu.Unlock()
			if finished {
				return
			}
			timedOut = true
			jb.cancel.Cancel(deadline)
			tr.Abort(deadline)
		})
	}

	start := time.Now()
	for r := 0; r < ex.p.cfg.P; r++ {
		ex.tasks[r] <- rankTask{spec: jb.spec, opt: opt, tr: tr}
	}
	var res0 *fdtd.Result
	var firstErr error
	for i := 0; i < ex.p.cfg.P; i++ {
		rr := <-ex.results
		if rr.err != nil && firstErr == nil {
			firstErr = rr.err
		}
		if rr.rank == 0 && rr.res != nil {
			res0 = rr.res
		}
	}
	tmu.Lock()
	finished = true
	jobTimedOut := timedOut
	tmu.Unlock()
	if timer != nil {
		timer.Stop()
	}
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
		jb.bundle = obs.BundleFromCollector(jb.trace, ex.p.cfg.Name, col)
		jb.bundle.Spans = append(jb.bundle.Spans,
			obs.ServiceSpan("serve", "queued", jb.admitted, start),
			obs.ServiceSpan("serve", "execute", start, end),
		)
	}
	tr.SetTrace(0)

	// The mesh is reusable only if the run ended clean: no transport
	// failure and nothing sent that was not received — Pending counts
	// the frames of a half-finished exchange wherever they sit, kernel
	// socket buffers included.  Anything else — abort, rank panic — retires
	// it; the next job gets a fresh one.
	if firstErr != nil || tr.Err() != nil || tr.Pending() != 0 {
		ex.retireTransport()
	}

	switch {
	case jobTimedOut:
		ex.p.complete(jb, nil, &JobTimeoutError{Timeout: jb.timeout})
	case firstErr != nil:
		if c, ok := fault.AsCancelled(firstErr); ok {
			ex.p.complete(jb, nil, fmt.Errorf("serve: job%s cancelled at step %d: %w", traceTag(jb.trace), c.Step, firstErr))
		} else {
			ex.p.complete(jb, nil, fmt.Errorf("serve: job%s failed: %w", traceTag(jb.trace), firstErr))
		}
	case res0 == nil:
		ex.p.complete(jb, nil, fmt.Errorf("serve: job%s produced no rank-0 result", traceTag(jb.trace)))
	default:
		ex.p.complete(jb, buildResult(jb, ex.p.cfg.P, res0, wall, snap), nil)
	}
}
