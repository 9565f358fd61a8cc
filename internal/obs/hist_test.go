package obs

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHistBucketRoundTrip checks that every bucket's bounds are
// consistent: lower maps into the bucket, upper maps into the bucket,
// and upper+1 maps into the next.
func TestHistBucketRoundTrip(t *testing.T) {
	for idx := 0; idx < histNumBuckets-1; idx++ {
		lo, hi := histBucketLower(idx), histBucketUpper(idx)
		if got := histBucketIndex(lo); got != idx {
			t.Fatalf("lower(%d)=%d maps to bucket %d", idx, lo, got)
		}
		if got := histBucketIndex(hi); got != idx {
			t.Fatalf("upper(%d)=%d maps to bucket %d", idx, hi, got)
		}
		if got := histBucketIndex(hi + 1); got != idx+1 {
			t.Fatalf("upper(%d)+1=%d maps to bucket %d, want %d", idx, hi+1, got, idx+1)
		}
	}
}

// TestHistQuantileAccuracy: recorded quantiles must be within the
// bucketing's relative error (1/2^histSubBits, ~3%) of the exact ones.
func TestHistQuantileAccuracy(t *testing.T) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(7))
	n := 20000
	vals := make([]int64, n)
	for i := range vals {
		// Log-uniform values across six decades: exercises many buckets.
		v := int64(1000 * (1 << uint(rng.Intn(20))))
		v += rng.Int63n(v)
		vals[i] = v
		h.RecordValue(v)
	}
	snap := h.Snapshot()
	if snap.Count != int64(n) {
		t.Fatalf("count = %d, want %d", snap.Count, n)
	}
	sorted := append([]int64(nil), vals...)
	for i := range sorted {
		for j := i; j > 0 && sorted[j-1] > sorted[j]; j-- {
			sorted[j-1], sorted[j] = sorted[j], sorted[j-1]
		}
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := sorted[int(q*float64(n-1))]
		got := snap.Quantile(q)
		rel := float64(got-exact) / float64(exact)
		if rel < 0 {
			rel = -rel
		}
		if rel > 2.0/histSubBuckets {
			t.Errorf("q%.3f: got %d, exact %d, rel err %.4f > %.4f", q, got, exact, rel, 2.0/histSubBuckets)
		}
	}
	if snap.Max != sorted[n-1] {
		t.Errorf("max = %d, want %d", snap.Max, sorted[n-1])
	}
	if snap.Min != sorted[0] {
		t.Errorf("min = %d, want %d", snap.Min, sorted[0])
	}
}

// TestHistRecordAllocs: the record path must be allocation-free, both
// disabled (nil histogram) and enabled — it sits on the per-request hot
// path of the load generator and the serving node.
func TestHistRecordAllocs(t *testing.T) {
	var nilHist *Histogram
	if n := testing.AllocsPerRun(200, func() { nilHist.Record(time.Millisecond) }); n != 0 {
		t.Errorf("nil Record allocates %.1f per run, want 0", n)
	}
	h := NewHistogram()
	if n := testing.AllocsPerRun(200, func() { h.Record(time.Millisecond) }); n != 0 {
		t.Errorf("enabled Record allocates %.1f per run, want 0", n)
	}
}

// TestHistConcurrentRecord: concurrent recorders must not lose counts.
func TestHistConcurrentRecord(t *testing.T) {
	h := NewHistogram()
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.RecordValue(rng.Int63n(1 << 30))
			}
		}(int64(w))
	}
	wg.Wait()
	snap := h.Snapshot()
	if snap.Count != workers*per {
		t.Fatalf("count = %d, want %d", snap.Count, workers*per)
	}
	var sum int64
	for _, b := range snap.Buckets {
		sum += b.Count
	}
	if sum != workers*per {
		t.Fatalf("bucket sum = %d, want %d", sum, workers*per)
	}
}

// TestHistPromExposition: the histogram exposition must satisfy the
// text-format grammar, including bucket monotonicity and the
// _sum/_count/+Inf triple.
func TestHistPromExposition(t *testing.T) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		h.Record(time.Duration(rng.Int63n(int64(300 * time.Millisecond))))
	}
	var b strings.Builder
	if err := WritePromHistogram(&b, "test_latency_seconds", "Test latencies.", `job="load"`, h.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := LintProm(strings.NewReader(b.String())); err != nil {
		t.Fatalf("exposition fails grammar: %v\n%s", err, b.String())
	}
	var nilSnap HistSnapshot
	b.Reset()
	if err := WritePromHistogram(&b, "empty_seconds", "Empty.", "", nilSnap); err != nil {
		t.Fatal(err)
	}
	if err := LintProm(strings.NewReader(b.String())); err != nil {
		t.Fatalf("empty exposition fails grammar: %v\n%s", err, b.String())
	}
}
