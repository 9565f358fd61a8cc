package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/fdtd"
)

// jobGridSpec is the 24x16x16 Version C job grid of the benchmark's
// service workloads, 64 steps, with two material boxes: its request is
// about 420 bytes and its result about 5 KB.
func jobGridSpec() fdtd.Spec {
	s := fdtd.SpecTable1()
	s.NX, s.NY, s.NZ, s.Steps = 24, 16, 16, 64
	s.Source.I, s.Source.J, s.Source.K = 12, 8, 8
	s.Probe = [3]int{15, 8, 8}
	s.Objects = []fdtd.Object{
		{I0: 6, I1: 11, J0: 4, J1: 12, K0: 4, K1: 12, EpsR: 4, MuR: 1, Sigma: 0.02},
		{I0: 14, I1: 19, J0: 5, J1: 11, K0: 5, K1: 11, EpsR: 1, MuR: 2, SigmaM: 0.01},
	}
	return s
}

// resolvedBits is what a request denotes, bit for bit: its resolved
// spec (JSON carries each float's shortest round-tripping form), its
// options and its fingerprint, or the error that refuses it.
func resolvedBits(req JobRequest, err error) string {
	if err != nil {
		return "decode error"
	}
	spec, opts, err := ResolveRequest(req)
	if err != nil {
		return "resolve error: " + err.Error()
	}
	b, err := json.Marshal(spec)
	if err != nil {
		return "encode error: " + err.Error()
	}
	return fmt.Sprintf("%s %+v %016x", b, opts, spec.Fingerprint())
}

func (rr *RequestReader) len() int {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	return len(rr.memo)
}

// TestRequestMemoIsExact: for every FuzzJobRequest seed, a miss and
// then a hit denote exactly what a plain DecodeJobRequest does, and a
// body that fails to decode fails on every read without entering the
// memo.
func TestRequestMemoIsExact(t *testing.T) {
	var rr RequestReader
	for _, body := range jobRequestSeeds(t) {
		want, werr := DecodeJobRequest(bytes.NewReader(body))
		before := rr.len()
		for _, read := range []string{"miss", "hit", "hit again"} {
			got, err := rr.decode(body)
			if (err != nil) != (werr != nil) {
				t.Fatalf("%s of %s: error %v, plain decode %v", read, body, err, werr)
			}
			if g, w := resolvedBits(got, err), resolvedBits(want, werr); g != w {
				t.Fatalf("%s of %s:\n got %s\nwant %s", read, body, g, w)
			}
		}
		if _, stored := rr.memo[string(body)]; stored != (werr == nil) {
			t.Fatalf("%s: stored %v with decode error %v", body, stored, werr)
		}
		if werr != nil && rr.len() != before {
			t.Fatalf("%s: a failed decode changed the memo from %d to %d entries", body, before, rr.len())
		}
	}
}

// TestRequestMemoHitIsACopy: a caller that changes the request it got
// changes neither the memo nor the next hit.
func TestRequestMemoHitIsACopy(t *testing.T) {
	var rr RequestReader
	grid := jobGridSpec()
	body, err := json.Marshal(JobRequest{Spec: &grid})
	if err != nil {
		t.Fatal(err)
	}
	want := resolvedBits(JobRequest{Spec: &grid}, nil)
	for read := 0; read < 3; read++ {
		got, err := rr.decode(body)
		if g := resolvedBits(got, err); g != want {
			t.Fatalf("read %d after mutating the previous one:\n got %s\nwant %s", read, g, want)
		}
		got.Spec.Objects[0].EpsR = 99
		got.Spec.Objects = append(got.Spec.Objects, fdtd.Object{I1: 1, J1: 1, K1: 1, EpsR: 2})
		got.Spec.FarField.Offset = 7
		got.Spec.FarField.Dir[0] = -1
		got.Spec.NX = 5
	}
}

// TestRequestMemoIsBounded: the memo never holds more than memoEntries
// bodies, drops the oldest first, and passes over bodies past
// memoBodyBytes.
func TestRequestMemoIsBounded(t *testing.T) {
	var rr RequestReader
	body := func(i int) []byte { return []byte(fmt.Sprintf(`{"preset":"small","timeout_ms":%d}`, i+1)) }
	for i := 0; i < memoEntries+100; i++ {
		if _, err := rr.decode(body(i)); err != nil {
			t.Fatal(err)
		}
		if n := rr.len(); n > memoEntries {
			t.Fatalf("%d entries after %d bodies, bound %d", n, i+1, memoEntries)
		}
	}
	if _, kept := rr.memo[string(body(99))]; kept {
		t.Fatal("body 99 of 356 still stored: the memo did not drop its oldest entries")
	}
	if _, kept := rr.memo[string(body(100))]; !kept {
		t.Fatal("body 100 of 356 dropped: the memo holds fewer than its bound")
	}

	big := jobGridSpec()
	for len(big.Objects) < 64 {
		big.Objects = append(big.Objects, big.Objects[0])
	}
	large, err := json.Marshal(JobRequest{Spec: &big})
	if err != nil {
		t.Fatal(err)
	}
	if len(large) <= memoBodyBytes {
		t.Fatalf("large body is %d bytes, want more than %d", len(large), memoBodyBytes)
	}
	if _, err := rr.decode(large); err != nil {
		t.Fatal(err)
	}
	if _, stored := rr.memo[string(large)]; stored {
		t.Fatalf("a %d-byte body entered the memo", len(large))
	}
}

// TestRequestMemoConcurrentReaders: readers racing on a set of bodies
// larger than the memo, so that hits, misses and evictions interleave,
// each get exactly the plain decode.  Run it under -race.
func TestRequestMemoConcurrentReaders(t *testing.T) {
	var rr RequestReader
	const bodies = memoEntries + 64
	want := make([]string, bodies)
	body := make([][]byte, bodies)
	for i := range body {
		spec := jobGridSpec()
		spec.Source.Delay = float64(i)
		body[i], _ = json.Marshal(JobRequest{Spec: &spec})
		want[i] = resolvedBits(JobRequest{Spec: &spec}, nil)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 2*bodies; n++ {
				i := (n*(2*g+1) + g) % bodies
				req, err := rr.decode(body[i])
				if err != nil {
					errs <- err.Error()
					return
				}
				if got := resolvedBits(req, err); got != want[i] {
					errs <- fmt.Sprintf("body %d: got %s, want %s", i, got, want[i])
					return
				}
				req.Spec.Objects[0].EpsR = float64(g) // the caller's own copy
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// BenchmarkReadJobRequest reads the job-grid request, about 420 bytes,
// as a repeat (hit) and as a body the memo has not seen (miss).
func BenchmarkReadJobRequest(b *testing.B) {
	spec := jobGridSpec()
	hot, err := json.Marshal(JobRequest{Spec: &spec})
	if err != nil {
		b.Fatal(err)
	}
	// More distinct bodies than the memo holds, read in a cycle: each
	// has been dropped by the time it comes round again.
	cold := make([][]byte, 4*memoEntries)
	for i := range cold {
		s := jobGridSpec()
		s.Source.Delay = float64(i)
		cold[i], _ = json.Marshal(JobRequest{Spec: &s})
	}
	w := httptest.NewRecorder()
	read := func(b *testing.B, rr *RequestReader, body []byte) {
		r := &http.Request{Body: io.NopCloser(bytes.NewReader(body))}
		if _, _, err := rr.ReadJobRequest(w, r); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("hit", func(b *testing.B) {
		var rr RequestReader
		read(b, &rr, hot)
		b.SetBytes(int64(len(hot)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			read(b, &rr, hot)
		}
	})
	b.Run("miss", func(b *testing.B) {
		var rr RequestReader
		for _, body := range cold {
			read(b, &rr, body)
		}
		b.SetBytes(int64(len(hot)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			read(b, &rr, cold[i%len(cold)])
		}
	})
}
