package obs

import (
	"fmt"
	"strconv"
	"sync/atomic"
)

// Trace context: a compact 64-bit job identifier minted once at the
// cluster edge (archcoord, or any client that wants to correlate) and
// propagated — HTTP header to the serving node, SubmitOptions into the
// pool, Collector into the mesh/sched phase timers, SetTrace onto the
// socket transport — so every span, log line and error an individual
// job produces is greppable and mergeable by one ID.

// TraceID identifies one job end to end.  Zero means "untraced".
type TraceID uint64

// TraceHeader is the HTTP header carrying the trace ID between
// archload, archcoord and archserve.
const TraceHeader = "X-Archetype-Trace-Id"

// String renders the ID the way the API and logs spell it: 16 lowercase
// hex digits, zero-padded.
func (t TraceID) String() string {
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := range b {
		b[i] = digits[uint64(t)>>(60-4*i)&0xf]
	}
	return string(b[:])
}

// ParseTraceID parses the 16-hex-digit form.  An empty string parses to
// zero (untraced) without error.
func ParseTraceID(s string) (TraceID, error) {
	if s == "" {
		return 0, nil
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("obs: bad trace id %q: %w", s, err)
	}
	return TraceID(v), nil
}

// splitmix64 finishes a weak sequence number into a well-dispersed
// 64-bit value (same mixer the cluster ring uses for vnode points).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewTraceSource returns a mint function producing a unique, dispersed
// TraceID per call.  The seed decorrelates concurrent minters (two
// coordinators started with different seeds cannot collide in their
// first 2^63 IDs); the sequence itself is an atomic counter, so a mint
// is lock-free and never returns zero.
func NewTraceSource(seed int64) func() TraceID {
	var ctr atomic.Uint64
	base := splitmix64(uint64(seed))
	return func() TraceID {
		for {
			id := TraceID(splitmix64(base + ctr.Add(1)))
			if id != 0 {
				return id
			}
		}
	}
}

// SetTrace stamps the collector with the job's trace ID: every span it
// exports (Chrome trace args, trace bundles) carries the ID from then
// on.  Safe on nil.
func (c *Collector) SetTrace(id TraceID) {
	if c == nil {
		return
	}
	c.trace.Store(uint64(id))
}

// Trace returns the stamped trace ID, zero when untraced or nil.
func (c *Collector) Trace() TraceID {
	if c == nil {
		return 0
	}
	return TraceID(c.trace.Load())
}
