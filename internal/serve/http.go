package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/fdtd"
	"repro/internal/obs"
)

// JobRequest is the POST /v1/jobs body.  Exactly one of Preset or Spec
// must be set; Preset names one of the repository's experiment specs.
type JobRequest struct {
	// Preset selects a built-in spec: "small", "small-a", "table1" or
	// "figure2".
	Preset string `json:"preset,omitempty"`
	// Spec is a full run specification (see fdtd.Spec).
	Spec *fdtd.Spec `json:"spec,omitempty"`
	// TimeoutMS overrides the server's default per-job timeout; -1
	// disables the deadline.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// NoCache forces a fresh computation, bypassing cache and
	// coalescing.
	NoCache bool `json:"no_cache,omitempty"`
}

// JobResponse is the POST /v1/jobs success body.
type JobResponse struct {
	Origin string     `json:"origin"` // computed | cache | coalesced
	Result *JobResult `json:"result"`
	// Trace is the request's trace id (propagated from the
	// X-Archetype-Trace-Id header, or minted here when absent); the
	// node's span bundle is retrievable at GET /v1/trace/{id} while it
	// stays in the ring buffer.
	Trace string `json:"trace,omitempty"`
}

// errorResponse is the JSON error body every failure returns.
type errorResponse struct {
	Kind  string `json:"kind"`
	Error string `json:"error"`
}

// presetSpec resolves a named preset.
func presetSpec(name string) (fdtd.Spec, error) {
	switch name {
	case "small":
		return fdtd.SpecSmall(), nil
	case "small-a":
		return fdtd.SpecSmallA(), nil
	case "table1":
		return fdtd.SpecTable1(), nil
	case "figure2":
		return fdtd.SpecFigure2(), nil
	}
	return fdtd.Spec{}, fmt.Errorf("unknown preset %q (want small, small-a, table1 or figure2)", name)
}

// DecodeJobRequest decodes a POST /v1/jobs body: one JSON object with
// no unknown fields and nothing but white space after it.  Nodes and
// the cluster coordinator both decode with it, so they accept the same
// bodies.
func DecodeJobRequest(r io.Reader) (JobRequest, error) {
	var req JobRequest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return JobRequest{}, fmt.Errorf("decode request: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return JobRequest{}, errors.New("decode request: data after the JSON object")
	}
	return req, nil
}

// ResolveRequest resolves a JobRequest into the spec and submit
// options it denotes, enforcing the preset/spec alternative.  The
// cluster coordinator shares this resolution so that a named preset
// and its expanded spec fingerprint — and therefore shard — the same
// way on the coordinator as on the node.
func ResolveRequest(req JobRequest) (fdtd.Spec, SubmitOptions, error) {
	var spec fdtd.Spec
	switch {
	case req.Preset != "" && req.Spec != nil:
		return spec, SubmitOptions{}, fmt.Errorf("set preset or spec, not both")
	case req.Preset != "":
		var err error
		if spec, err = presetSpec(req.Preset); err != nil {
			return spec, SubmitOptions{}, err
		}
	case req.Spec != nil:
		spec = *req.Spec
	default:
		return spec, SubmitOptions{}, fmt.Errorf("request needs a preset or a spec")
	}
	opts := SubmitOptions{NoCache: req.NoCache}
	if req.TimeoutMS != 0 {
		opts.Timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	return spec, opts, nil
}

// Handler returns the service's HTTP mux:
//
//	POST /v1/jobs        submit a job, wait for its result
//	GET  /v1/stats       service counters as JSON
//	GET  /v1/trace/{id}  span bundle for a recent traced job
//	GET  /healthz        liveness ("ok", or 503 while draining)
//	GET  /metrics        Prometheus text exposition
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/jobs", s.handleJobs)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/trace/", s.handleTrace)
	mux.HandleFunc("/v1/cache", s.handleCacheIndex)
	mux.HandleFunc("/v1/cache/", s.handleCacheEntry)
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

// CacheIndex is the GET /v1/cache body: the cached fingerprints, most
// recently used first.
type CacheIndex struct {
	Fingerprints []string `json:"fingerprints"`
}

// handleCacheIndex serves GET /v1/cache: the export index the cluster's
// warm-handoff and rejoin-prefill paths walk.  The index stays served
// while draining — that grace window is exactly when the coordinator
// pulls a leaving node's cache.
func (s *Server) handleCacheIndex(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "method", fmt.Errorf("use GET"))
		return
	}
	if s.cfg.CacheEntries <= 0 {
		writeError(w, http.StatusConflict, "cache_disabled", ErrCacheDisabled)
		return
	}
	fps := s.CacheFingerprints()
	idx := CacheIndex{Fingerprints: make([]string, len(fps))}
	for i, fp := range fps {
		idx.Fingerprints[i] = fingerprintString(fp)
	}
	writeJSON(w, http.StatusOK, idx)
}

// handleCacheEntry serves the per-entry cache transfer API:
//
//	GET /v1/cache/{fp}  the cached JobResult, verbatim JSON (404 if absent)
//	PUT /v1/cache/{fp}  admit a result computed elsewhere
//
// The bodies are JobResult JSON.  Callers that relay entries between
// nodes must pass the GET body through as raw bytes (json.RawMessage):
// Go's float encoding is shortest-round-trip so a decode/re-encode away
// from the raw bytes would still be bit-faithful, but shipping verbatim
// bytes makes bitwise identity a property of the wire rather than of an
// encoder argument.  PUT asserts the path fingerprint against the
// result's own before admission (Theorem 1 pairs results to
// fingerprints; a mismatched pair is the one corruption a cache must
// never accept).
func (s *Server) handleCacheEntry(w http.ResponseWriter, r *http.Request) {
	fpStr := strings.TrimPrefix(r.URL.Path, "/v1/cache/")
	fp, err := strconv.ParseUint(fpStr, 16, 64)
	if err != nil || len(fpStr) != 16 {
		writeError(w, http.StatusBadRequest, "invalid", fmt.Errorf("bad fingerprint %q in path (want 16 hex digits)", fpStr))
		return
	}
	if s.cfg.CacheEntries <= 0 {
		writeError(w, http.StatusConflict, "cache_disabled", ErrCacheDisabled)
		return
	}
	switch r.Method {
	case http.MethodGet:
		res, ok := s.CachedResult(fp)
		if !ok {
			writeError(w, http.StatusNotFound, "not_found", fmt.Errorf("fingerprint %s not cached", fingerprintString(fp)))
			return
		}
		writeJSON(w, http.StatusOK, res)
	case http.MethodPut:
		var res JobResult
		if err := json.NewDecoder(r.Body).Decode(&res); err != nil {
			writeError(w, http.StatusBadRequest, "invalid", fmt.Errorf("decode result: %w", err))
			return
		}
		switch err := s.ImportResult(fp, &res); {
		case err == nil:
			w.WriteHeader(http.StatusNoContent)
		case errors.Is(err, ErrFingerprintMismatch):
			writeError(w, http.StatusBadRequest, "fingerprint_mismatch", err)
		case errors.Is(err, ErrDraining):
			writeError(w, http.StatusServiceUnavailable, "draining", err)
		default:
			writeError(w, http.StatusInternalServerError, "internal", err)
		}
	default:
		w.Header().Set("Allow", "GET, PUT")
		writeError(w, http.StatusMethodNotAllowed, "method", fmt.Errorf("use GET or PUT"))
	}
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "method", fmt.Errorf("use POST"))
		return
	}
	req, err := DecodeJobRequest(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid", err)
		return
	}
	spec, opts, err := ResolveRequest(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid", err)
		return
	}
	// Trace context: adopt the caller's id (the cluster coordinator
	// mints one per request), or mint locally for direct submissions so
	// standalone nodes are traceable too.  A malformed header is a bad
	// request — silently dropping it would break correlation downstream.
	trace, err := obs.ParseTraceID(r.Header.Get(obs.TraceHeader))
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid", fmt.Errorf("%s: %w", obs.TraceHeader, err))
		return
	}
	if trace == 0 {
		trace = s.mint()
	}
	opts.Trace = trace

	res, origin, err := s.Submit(spec, opts)
	if err != nil {
		s.writeSubmitError(w, err, trace)
		return
	}
	w.Header().Set("X-Archserve-Origin", origin.String())
	w.Header().Set(obs.TraceHeader, trace.String())
	writeJSON(w, http.StatusOK, JobResponse{Origin: origin.String(), Result: res, Trace: trace.String()})
}

// handleTrace serves GET /v1/trace/{id}: the node-local span bundle for
// a recent traced job, consumed by the coordinator's cross-node merge.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id, err := obs.ParseTraceID(strings.TrimPrefix(r.URL.Path, "/v1/trace/"))
	if err != nil || id == 0 {
		writeError(w, http.StatusBadRequest, "invalid", fmt.Errorf("bad trace id in path %q", r.URL.Path))
		return
	}
	bundle, ok := s.traces.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", fmt.Errorf("trace %s not retained (ring depth %d)", id, s.cfg.TraceDepth))
		return
	}
	writeJSON(w, http.StatusOK, bundle)
}

// writeSubmitError maps the service's typed errors onto HTTP statuses:
// backpressure is 429 with Retry-After, drain is 503, a job deadline
// is 504, a bad spec is 400, anything else 500.  The trace id rides the
// response header so even failures stay correlated.
func (s *Server) writeSubmitError(w http.ResponseWriter, err error, trace obs.TraceID) {
	if trace != 0 {
		w.Header().Set(obs.TraceHeader, trace.String())
	}
	if o, ok := AsOverloaded(err); ok {
		secs := int(o.RetryAfter.Round(time.Second) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", fmt.Sprint(secs))
		writeError(w, http.StatusTooManyRequests, "overloaded", err)
		return
	}
	if errors.Is(err, ErrDraining) {
		writeError(w, http.StatusServiceUnavailable, "draining", err)
		return
	}
	if _, ok := AsJobTimeout(err); ok {
		writeError(w, http.StatusGatewayTimeout, "timeout", err)
		return
	}
	var inv *InvalidJobError
	if errors.As(err, &inv) {
		writeError(w, http.StatusBadRequest, "invalid", err)
		return
	}
	writeError(w, http.StatusInternalServerError, "internal", err)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeError(w, http.StatusServiceUnavailable, "draining", ErrDraining)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.m.writeText(w, len(s.pool.queue), cap(s.pool.queue), s.cfg.Workers, s.cache.len(), s.cache.evicted())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, kind string, err error) {
	writeJSON(w, status, errorResponse{Kind: kind, Error: err.Error()})
}
