package serve

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/fault"
	"repro/internal/fdtd"
	"repro/internal/obs"
)

// job is one admitted unit of work flowing through the pool.  Multiple
// coalesced requests may wait on the same job; the first writer of
// res/err closes done exactly once.
type job struct {
	id       uint64
	spec     fdtd.Spec
	fp       uint64
	timeout  time.Duration
	noCache  bool
	shared   bool // registered in the coalescing map (noCache jobs are not)
	trace    obs.TraceID
	admitted time.Time // when Submit accepted the job (queued-span start)

	cancel *fault.Canceller
	done   chan struct{}
	out    *encoded
	err    error
	// bundle is the job's trace spans (service lane + per-rank phase
	// spans), filled by the executor for traced jobs and stored into the
	// server's TraceStore at completion.
	bundle obs.TraceBundle
}

// small reports whether the job is batchable: a grid under the
// configured cell bound, so several of them amortise one dispatch.
func (j *job) small(maxCells int) bool { return j.spec.Cells() <= maxCells }

// JobResult is the serialisable outcome of one job.  Probe, FarA and
// FarF carry the exact float64 values (Go's JSON encoder emits the
// shortest round-tripping representation, so decoding restores the
// bits); FieldHash digests the six final field grids, extending the
// bitwise-identity guarantee to state the response does not ship.
type JobResult struct {
	Fingerprint string    `json:"fingerprint"`
	P           int       `json:"p"`
	Probe       []float64 `json:"probe"`
	FarA        []float64 `json:"far_a,omitempty"`
	FarF        []float64 `json:"far_f,omitempty"`
	FieldHash   string    `json:"field_hash"`
	Work        float64   `json:"work"`
	WallSeconds float64   `json:"wall_seconds"`
	// PhaseSeconds is the per-job phase breakdown (summed over ranks)
	// from the run's obs collector: compute, exchange, collective, io,
	// checkpoint.
	PhaseSeconds map[string]float64 `json:"phase_seconds,omitempty"`
}

// BitwiseEqual reports whether two results describe bit-for-bit the
// same computation outcome — the cache-identity predicate Theorem 1
// guarantees and the tests assert.  Wall time and phase timers are
// excluded: they describe the execution, not the result.
func (r *JobResult) BitwiseEqual(o *JobResult) bool {
	if r.Fingerprint != o.Fingerprint || r.FieldHash != o.FieldHash ||
		r.Work != o.Work ||
		len(r.Probe) != len(o.Probe) || len(r.FarA) != len(o.FarA) || len(r.FarF) != len(o.FarF) {
		return false
	}
	for i := range r.Probe {
		if r.Probe[i] != o.Probe[i] {
			return false
		}
	}
	for i := range r.FarA {
		if r.FarA[i] != o.FarA[i] {
			return false
		}
	}
	for i := range r.FarF {
		if r.FarF[i] != o.FarF[i] {
			return false
		}
	}
	return true
}

// encoded is a result together with its JSON encoding.  The service
// encodes a result exactly once, in complete, before anything can
// share it.  Every response that carries the result afterwards —
// computed, cache or coalesced — writes these bytes and formats no
// float again.  Theorem 1 is what makes one encoding enough: a result
// stands in for any recomputation of its fingerprint bit for bit, and
// so does its encoding.
type encoded struct {
	res  *JobResult
	json []byte // json.Marshal(res): compact, no trailing newline
}

// encodeResult encodes res once for every later response.  It fails
// only on a float JSON cannot carry (NaN or ±Inf), which then fails
// the job instead of sending a truncated 200.
func encodeResult(res *JobResult) (*encoded, error) {
	b, err := json.Marshal(res)
	if err != nil {
		return nil, fmt.Errorf("serve: encode result: %w", err)
	}
	return &encoded{res: res, json: b}, nil
}

// fingerprintString renders a 64-bit digest the way the API exposes
// it: 16 lowercase hex digits.
func fingerprintString(v uint64) string { return fmt.Sprintf("%016x", v) }

// ResultFieldHash renders the service's field digest for an fdtd
// result the way the API exposes it.  External bitwise-identity checks
// (the cluster chaos tests) use it to compare a node's JSON response
// against a fresh mesh.Sim recomputation.
func ResultFieldHash(res *fdtd.Result) string { return fingerprintString(res.FieldHash()) }

// buildResult assembles the serialisable result from rank 0's Result
// and the job's observability snapshot.
func buildResult(jb *job, p int, res *fdtd.Result, wall time.Duration, snap obs.Snapshot) *JobResult {
	phases := make(map[string]float64, int(obs.NumPhases))
	for _, r := range snap.Ranks {
		for ph := obs.Phase(0); ph < obs.NumPhases; ph++ {
			phases[ph.String()] += r.Phase[ph].Seconds()
		}
	}
	return &JobResult{
		Fingerprint:  fingerprintString(jb.fp),
		P:            p,
		Probe:        res.Probe,
		FarA:         res.FarA,
		FarF:         res.FarF,
		FieldHash:    fingerprintString(res.FieldHash()),
		Work:         res.Work,
		WallSeconds:  wall.Seconds(),
		PhaseSeconds: phases,
	}
}
