package machine

import "testing"

func TestStreamTriadComputesTriad(t *testing.T) {
	const n = 1000
	a := make([]float64, n)
	b := make([]float64, n)
	c := make([]float64, n)
	for i := range b {
		b[i] = float64(i)
		c[i] = float64(2 * i)
	}
	triad(a, b, c, 3)
	for i := range a {
		if want := b[i] + float64(3*c[i]); a[i] != want {
			t.Fatalf("a[%d] = %v, want %v", i, a[i], want)
		}
	}
}

func TestStreamTriadResult(t *testing.T) {
	r := StreamTriad(1<<16, 3)
	if r.Elems != 1<<16 || r.Iters != 3 {
		t.Fatalf("echoed sizes wrong: %+v", r)
	}
	if r.BestSeconds <= 0 {
		t.Fatalf("non-positive best time: %v", r.BestSeconds)
	}
	if r.BytesPerSec <= 0 {
		t.Fatalf("non-positive bandwidth: %v", r.BytesPerSec)
	}
	if want := 24 * float64(r.Elems) / r.BestSeconds; r.BytesPerSec != want {
		t.Fatalf("bandwidth %v inconsistent with best time (want %v)", r.BytesPerSec, want)
	}
	// Degenerate arguments are clamped, not rejected.
	r = StreamTriad(0, 0)
	if r.Elems != 1 || r.Iters != 1 {
		t.Fatalf("clamping failed: %+v", r)
	}
}
