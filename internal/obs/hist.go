package obs

import (
	"fmt"
	"io"
	"math/bits"
	"strings"
	"sync/atomic"
	"time"
)

// HDR-style latency histogram: log-linear bucketing (HdrHistogram's
// scheme) with histSubBits sub-buckets per power of two, so every
// recorded value lands in a bucket whose width is at most 1/2^histSubBits
// of its magnitude — ~3% relative error at 5 sub-bits, constant for all
// magnitudes from nanoseconds to hours.  The record path is one atomic
// add into a fixed array (plus count/sum), so it is safe for any number
// of concurrent recorders and allocates nothing; histograms merge by
// bucketwise addition, which is exactly what lets per-node latency
// distributions compose losslessly into cluster-wide percentiles.

const (
	// histSubBits is the sub-bucket resolution: 2^histSubBits linear
	// sub-buckets per power-of-two magnitude.
	histSubBits = 5
	// histSubBuckets is the sub-bucket count per magnitude.
	histSubBuckets = 1 << histSubBits
	// histNumBuckets covers the full non-negative int64 range:
	// values < histSubBuckets map exactly; every further power of two
	// adds histSubBuckets buckets.
	histNumBuckets = (64 - histSubBits + 1) * histSubBuckets
)

// histBucketIndex maps a non-negative value to its bucket.
func histBucketIndex(v int64) int {
	u := uint64(v)
	if u < histSubBuckets {
		return int(u)
	}
	exp := bits.Len64(u) - 1 // position of the leading 1, >= histSubBits
	mantissa := (u >> (uint(exp) - histSubBits)) & (histSubBuckets - 1)
	return (exp-histSubBits+1)*histSubBuckets + int(mantissa)
}

// histBucketLower returns the smallest value mapping to bucket idx.
func histBucketLower(idx int) int64 {
	if idx < histSubBuckets {
		return int64(idx)
	}
	block := idx / histSubBuckets
	sub := idx % histSubBuckets
	return int64(histSubBuckets+sub) << uint(block-1)
}

// histBucketUpper returns the largest value mapping to bucket idx.
func histBucketUpper(idx int) int64 {
	if idx >= histNumBuckets-1 {
		return int64(^uint64(0) >> 1)
	}
	return histBucketLower(idx+1) - 1
}

// Histogram is a concurrent-safe log-bucketed value recorder.  The zero
// value is NOT ready; use NewHistogram.  All methods are no-ops (or
// zero answers) on a nil receiver, matching the collector's
// disabled-is-free idiom, and Record never allocates.
type Histogram struct {
	counts [histNumBuckets]atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
	min    atomic.Int64 // stored as -min so 0 means "unset"
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Record adds one duration observation.  Negative durations clamp to
// zero.  Safe on nil; never allocates.
func (h *Histogram) Record(d time.Duration) {
	h.RecordValue(int64(d))
}

// RecordValue adds one raw observation (nanoseconds for latencies).
// Negative values clamp to zero.  Safe on nil; never allocates.
func (h *Histogram) RecordValue(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.counts[histBucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.min.Load()
		if (cur != 0 && -v <= cur) || h.min.CompareAndSwap(cur, -v) {
			break
		}
	}
}

// Snapshot captures a point-in-time copy of the histogram.  Concurrent
// recorders may land between bucket reads; the drift is bounded by the
// in-flight records, never corrupting (counts only grow).  Safe on nil
// (returns an empty snapshot).
func (h *Histogram) Snapshot() HistSnapshot {
	snap := HistSnapshot{}
	if h == nil {
		return snap
	}
	snap.Count = h.count.Load()
	snap.Sum = h.sum.Load()
	snap.Max = h.max.Load()
	if m := h.min.Load(); m != 0 {
		snap.Min = -m
	}
	for i := range h.counts {
		if c := h.counts[i].Load(); c > 0 {
			snap.Buckets = append(snap.Buckets, HistBucket{Index: i, Count: c})
		}
	}
	return snap
}

// HistBucket is one non-empty bucket of a snapshot.
type HistBucket struct {
	Index int   `json:"index"`
	Count int64 `json:"count"`
}

// Lower returns the bucket's smallest representable value.
func (b HistBucket) Lower() int64 { return histBucketLower(b.Index) }

// Upper returns the bucket's largest representable value.
func (b HistBucket) Upper() int64 { return histBucketUpper(b.Index) }

// HistSnapshot is an immutable view of a histogram: only non-empty
// buckets, in increasing value order.  Snapshots serialise; they are
// what crosses process and node boundaries.
type HistSnapshot struct {
	Count   int64        `json:"count"`
	Sum     int64        `json:"sum"`
	Min     int64        `json:"min,omitempty"`
	Max     int64        `json:"max,omitempty"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Quantile returns the value at quantile q (0 <= q <= 1), linearly
// interpolated inside the holding bucket.  Returns 0 on an empty
// snapshot.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the target observation, 1-based.
	rank := int64(q*float64(s.Count-1)) + 1
	var seen int64
	for _, b := range s.Buckets {
		seen += b.Count
		if seen >= rank {
			lo, hi := b.Lower(), b.Upper()
			if hi <= lo || b.Count == 1 {
				return lo
			}
			// Position of the target within this bucket's occupants.
			into := float64(rank-(seen-b.Count)-1) / float64(b.Count-1)
			v := lo + int64(into*float64(hi-lo))
			if max := s.Max; max != 0 && v > max {
				v = max
			}
			return v
		}
	}
	return s.Max
}

// WritePromHistogram writes the snapshot as one Prometheus histogram
// family in text exposition format: cumulative buckets at each
// non-empty bucket's upper bound (in seconds, for duration-valued
// histograms), the mandatory +Inf bucket, _sum and _count.  labels, if
// non-empty, is the rendered label set without braces (`job="x"`),
// applied to every sample.
func WritePromHistogram(w io.Writer, name, help string, labels string, s HistSnapshot) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	sep := func(extra string) string {
		switch {
		case labels == "" && extra == "":
			return ""
		case labels == "":
			return "{" + extra + "}"
		case extra == "":
			return "{" + labels + "}"
		}
		return "{" + labels + "," + extra + "}"
	}
	var cum int64
	for _, bk := range s.Buckets {
		cum += bk.Count
		le := float64(bk.Upper()+1) / 1e9
		fmt.Fprintf(&b, "%s_bucket%s %d\n", name, sep(fmt.Sprintf(`le="%g"`, le)), cum)
	}
	fmt.Fprintf(&b, "%s_bucket%s %d\n", name, sep(`le="+Inf"`), s.Count)
	fmt.Fprintf(&b, "%s_sum%s %g\n", name, sep(""), float64(s.Sum)/1e9)
	fmt.Fprintf(&b, "%s_count%s %d\n", name, sep(""), s.Count)
	_, err := io.WriteString(w, b.String())
	return err
}
