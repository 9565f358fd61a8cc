package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
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

// MaxRequestBytes bounds a POST /v1/jobs body, on a node and on the
// cluster coordinator alike.  A request is a preset name or one spec,
// well under a kilobyte; the coordinator holds the whole body in memory
// to forward it verbatim.
const MaxRequestBytes = 1 << 20

// RequestReader reads POST /v1/jobs bodies.  Each Server and each
// cluster Coordinator owns one.  Its zero value is ready to use.
//
// It remembers the decode of recent bodies, keyed by their exact
// bytes, so a body sent again is not decoded again.  That is sound
// because DecodeJobRequest is a pure function of the bytes: the same
// body always decodes to the same request, or fails the same way.  Only
// byte-identical repeats hit, such as a hot spec sent by the same
// client code.  The memo holds at most memoEntries bodies of at most
// memoBodyBytes each; a full memo drops its oldest entry for the new
// one.  A body that fails to decode is never stored, so a bad body is
// refused the same way every time.
type RequestReader struct {
	mu   sync.Mutex
	memo map[string]JobRequest // body -> its decode; handed out only as clones
	keys [memoEntries]string   // memo's keys in a ring, oldest at next
	next int
}

// Bounds of RequestReader's memo.  A job-grid request is about 420
// bytes; a preset request is a few dozen.
const (
	memoEntries   = 256
	memoBodyBytes = 4 << 10
)

// ReadJobRequest reads a POST /v1/jobs body of at most MaxRequestBytes
// and decodes it as DecodeJobRequest does.  It returns the bytes it
// read too, which the coordinator forwards verbatim.
// RequestErrorStatus maps its errors onto HTTP.
func (rr *RequestReader) ReadJobRequest(w http.ResponseWriter, r *http.Request) ([]byte, JobRequest, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	if err != nil {
		return nil, JobRequest{}, fmt.Errorf("read request: %w", err)
	}
	req, err := rr.decode(body)
	return body, req, err
}

// decode is DecodeJobRequest through the memo.  The request returned
// is the caller's own: a hit returns a deep copy, and a miss stores
// one.
func (rr *RequestReader) decode(body []byte) (JobRequest, error) {
	if len(body) > memoBodyBytes {
		return DecodeJobRequest(bytes.NewReader(body))
	}
	rr.mu.Lock()
	req, ok := rr.memo[string(body)]
	rr.mu.Unlock()
	if ok {
		return req.clone(), nil
	}
	req, err := DecodeJobRequest(bytes.NewReader(body))
	if err != nil {
		return req, err
	}
	rr.mu.Lock()
	defer rr.mu.Unlock()
	if rr.memo == nil {
		rr.memo = make(map[string]JobRequest, memoEntries)
	}
	if _, ok := rr.memo[string(body)]; !ok {
		key := string(body)
		delete(rr.memo, rr.keys[rr.next]) // "" when not yet full: never a key
		rr.keys[rr.next] = key
		rr.next = (rr.next + 1) % memoEntries
		rr.memo[key] = req.clone()
	}
	return req, nil
}

// clone copies r down to the values it points at: the Spec, its
// Objects and its FarField.
func (r JobRequest) clone() JobRequest {
	if r.Spec != nil {
		spec := *r.Spec
		spec.Objects = slices.Clone(spec.Objects)
		if ff := spec.FarField; ff != nil {
			c := *ff
			spec.FarField = &c
		}
		r.Spec = &spec
	}
	return r
}

// RequestErrorStatus maps a ReadJobRequest error onto an HTTP status
// and error kind: 413 too_large for a body past MaxRequestBytes, 400
// invalid for anything else.
func RequestErrorStatus(err error) (int, string) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge, "too_large"
	}
	return http.StatusBadRequest, "invalid"
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
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "method", fmt.Errorf("use POST"))
		return
	}
	_, req, err := s.requests.ReadJobRequest(w, r)
	if err != nil {
		status, kind := RequestErrorStatus(err)
		writeError(w, status, kind, err)
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

	out, origin, err := s.submit(spec, opts)
	if err != nil {
		s.writeSubmitError(w, err, trace)
		return
	}
	originName, traceID := origin.String(), trace.String()
	w.Header().Set("X-Archserve-Origin", originName)
	w.Header().Set(obs.TraceHeader, traceID)
	w.Header().Set("Content-Type", "application/json")
	// A declared length frames the answer as one body instead of
	// chunks, and lets the coordinator read it into one buffer.
	w.Header().Set("Content-Length", strconv.Itoa(jobResponseLen(originName, out.json, traceID)))
	w.WriteHeader(http.StatusOK)
	writeJobResponse(w, originName, out.json, traceID)
}

// The literals of a JobResponse body around its origin, result and
// trace, shared by writeJobResponse and jobResponseLen.
const (
	respOrigin = `{"origin":"`
	respResult = `","result":`
	respTrace  = `,"trace":"`
	respEnd    = "\"}\n"
)

// writeJobResponse writes a JobResponse around a result's stored
// encoding: the bytes json.NewEncoder(w).Encode(JobResponse{...})
// writes, without encoding the result again.  Origin names and trace
// ids are lower-case words and hex digits, so they need no escaping,
// and the trace is never empty here.
func writeJobResponse(w io.Writer, origin string, result []byte, trace string) {
	io.WriteString(w, respOrigin)
	io.WriteString(w, origin)
	io.WriteString(w, respResult)
	w.Write(result)
	io.WriteString(w, respTrace)
	io.WriteString(w, trace)
	io.WriteString(w, respEnd)
}

// jobResponseLen is the length of the body writeJobResponse writes.
func jobResponseLen(origin string, result []byte, trace string) int {
	return len(respOrigin) + len(origin) + len(respResult) + len(result) + len(respTrace) + len(trace) + len(respEnd)
}

// maxResultDepth bounds the nesting ParseJobResponse follows inside a
// result.  A JobResult is an object holding arrays and one object, two
// levels deep.
const maxResultDepth = 8

// ParseJobResponse reads a node's POST /v1/jobs 200 body in one pass,
// provided the body has exactly the shape writeJobResponse writes:
//
//	{"origin":"…","result":…,"trace":"…"}\n
//
// The origin and the trace must be ASCII strings without escapes.  The
// result must be valid JSON with no white space, ASCII strings without
// escapes, and nesting below maxResultDepth.  ParseJobResponse returns
// the origin, the result's bytes (a subslice of body), and whether
// those bytes are already in the form encoding/json writes a
// json.RawMessage in.  They are compact by the shape, so that holds
// when no string holds <, > or &, which HTML escaping rewrites.
//
// ok is false for any other body, valid or not, and the caller then
// decodes it with encoding/json.  The check is sound but not complete:
// a body it accepts, json.Unmarshal accepts too, with the same origin
// and result, and a body it refuses may still be valid.
func ParseJobResponse(body []byte) (origin string, result []byte, canonical, ok bool) {
	p := respParser{b: body}
	if !p.lit(`{"origin":`) || !p.str() {
		return "", nil, false, false
	}
	origin = string(body[len(`{"origin":"`) : p.i-1])
	if !p.lit(`,"result":`) {
		return "", nil, false, false
	}
	start := p.i
	p.html = false
	if !p.value(0) {
		return "", nil, false, false
	}
	result, canonical = body[start:p.i], !p.html
	if !p.lit(`,"trace":`) || !p.str() || !p.lit("}\n") || p.i != len(body) {
		return "", nil, false, false
	}
	return origin, result, canonical, true
}

// respParser is ParseJobResponse's scanner over b from offset i.  Each
// method consumes one token or value and reports whether it matched;
// after a mismatch the parse is over.
type respParser struct {
	b    []byte
	i    int
	html bool // a string so far held <, > or &
}

// lit consumes the literal s.
func (p *respParser) lit(s string) bool {
	if len(p.b)-p.i < len(s) || string(p.b[p.i:p.i+len(s)]) != s {
		return false
	}
	p.i += len(s)
	return true
}

// str consumes a string of printable ASCII without escapes.
func (p *respParser) str() bool {
	if !p.lit(`"`) {
		return false
	}
	b := p.b
	for i := p.i; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			p.i = i + 1
			return true
		case c < 0x20 || c >= 0x7f || c == '\\':
			return false
		case c == '<' || c == '>' || c == '&':
			p.html = true
		}
	}
	return false
}

// value consumes one JSON value at nesting depth d.
func (p *respParser) value(d int) bool {
	if p.i >= len(p.b) {
		return false
	}
	switch p.b[p.i] {
	case '{':
		return d < maxResultDepth && p.list('}', func() bool { return p.str() && p.lit(":") && p.value(d+1) })
	case '[':
		return d < maxResultDepth && p.list(']', func() bool { return p.value(d + 1) })
	case '"':
		return p.str()
	case 't':
		return p.lit("true")
	case 'f':
		return p.lit("false")
	case 'n':
		return p.lit("null")
	}
	return p.number()
}

// list consumes an object or an array after its opening byte: members
// separated by commas, then end.
func (p *respParser) list(end byte, member func() bool) bool {
	p.i++
	if p.i < len(p.b) && p.b[p.i] == end {
		p.i++
		return true
	}
	for member() {
		if p.i >= len(p.b) {
			return false
		}
		switch p.b[p.i] {
		case ',':
			p.i++
		case end:
			p.i++
			return true
		default:
			return false
		}
	}
	return false
}

// number consumes a JSON number: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
func (p *respParser) number() bool {
	if p.i < len(p.b) && p.b[p.i] == '-' {
		p.i++
	}
	if p.i < len(p.b) && p.b[p.i] == '0' {
		p.i++
	} else if !p.digits() {
		return false
	}
	if p.i < len(p.b) && p.b[p.i] == '.' {
		p.i++
		if !p.digits() {
			return false
		}
	}
	if p.i < len(p.b) && (p.b[p.i] == 'e' || p.b[p.i] == 'E') {
		p.i++
		if p.i < len(p.b) && (p.b[p.i] == '+' || p.b[p.i] == '-') {
			p.i++
		}
		return p.digits()
	}
	return true
}

// digits consumes one or more decimal digits.
func (p *respParser) digits() bool {
	b, i := p.b, p.i
	for i < len(b) && b[i]-'0' < 10 {
		i++
	}
	ok := i > p.i
	p.i = i
	return ok
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
		writeError(w, http.StatusNotFound, "not_found", fmt.Errorf("trace %s not retained (ring depth %d)", id, obs.DefaultTraceDepth))
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
