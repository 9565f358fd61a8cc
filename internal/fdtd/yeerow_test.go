package fdtd

import (
	"math"
	"math/rand"
	"os"
	"regexp"
	"slices"
	"testing"
	"unsafe"
)

// yeeRow is the checked row entry: it re-slices every input to
// len(out), so a short one panics instead of being read past its end,
// and runs yeeRowAt on the rows.
func yeeRow(out, a, b, p, q, r, s []float64) {
	n := len(out)
	a, b, p, q, r, s = a[:n], b[:n], p[:n], q[:n], r[:n], s[:n]
	yeeRowAt(unsafe.SliceData(out), unsafe.SliceData(a), unsafe.SliceData(b),
		unsafe.SliceData(p), unsafe.SliceData(q), unsafe.SliceData(r), unsafe.SliceData(s), n)
}

// forEachRowBody runs fn as one subtest per row body with that body
// active; a body this CPU cannot run is skipped with a message.
func forEachRowBody(t *testing.T, fn func(t *testing.T)) {
	for _, body := range []rowBody{rowGeneric, rowAVX2} {
		t.Run(body.String(), func(t *testing.T) {
			if !slices.Contains(rowBodies(), body) {
				t.Skipf("this CPU cannot run the %v row body", body)
			}
			defer func(old rowBody) { activeRow = old }(activeRow)
			activeRow = body
			fn(t)
		})
	}
}

// TestYeeRowBodies holds every row body to the generic row bitwise, at
// every length 0..70 (so every tail length of a packed body occurs),
// on operands drawn to include NaNs with different payloads and signs,
// infinities, signed zeros, subnormals and overflowing products.  An
// input shorter than out must panic rather than be read past its end,
// and a row must not allocate.
func TestYeeRowBodies(t *testing.T) {
	specials := []float64{
		math.NaN(), math.Float64frombits(0xfff8000000000000), math.Float64frombits(0x7ff4000000000123),
		math.Float64frombits(0xfff0000000000456), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		5e-324, -3e-310, math.SmallestNonzeroFloat64 * 7, 1e308, -1e308, 1, -1,
	}
	rng := rand.New(rand.NewSource(28))
	draw := func() float64 {
		if rng.Intn(3) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return rng.Float64()*4 - 2
	}
	forEachRowBody(t, func(t *testing.T) {
		for n := 0; n <= 70; n++ {
			// out, a, b, p, q, r, s; the inputs may be longer than out.
			v := make([][]float64, 7)
			for i := range v {
				m := n
				if i > 0 {
					m += rng.Intn(3)
				}
				v[i] = make([]float64, m)
				for k := range v[i] {
					v[i][k] = draw()
				}
			}
			want := slices.Clone(v[0])
			yeeRowGeneric(want, v[1], v[2], v[3], v[4], v[5], v[6])
			got := slices.Clone(v[0])
			yeeRow(got, v[1], v[2], v[3], v[4], v[5], v[6])
			for k := range want {
				if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
					t.Fatalf("n=%d k=%d: %v (%#x), generic row %v (%#x)",
						n, k, got[k], math.Float64bits(got[k]), want[k], math.Float64bits(want[k]))
				}
			}
			for i := 1; i < len(v) && n > 0; i++ {
				in := slices.Clone(v[1:])
				in[i-1] = make([]float64, n-1)
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("n=%d: input %d of length %d did not panic", n, i, n-1)
						}
					}()
					yeeRow(slices.Clone(v[0]), in[0], in[1], in[2], in[3], in[4], in[5])
				}()
			}
		}
		v := make([][]float64, 7)
		for i := range v {
			v[i] = make([]float64, 66)
		}
		if a := testing.AllocsPerRun(100, func() { yeeRow(v[0], v[1], v[2], v[3], v[4], v[5], v[6]) }); a != 0 {
			t.Errorf("yeeRow allocates %v times per row, want 0", a)
		}
	})
}

// TestYeeRowAssemblyHasNoFMA keeps the packed body bitwise equal to
// the generic row by construction: a fused multiply-add rounds once
// where the Go expression rounds twice.
func TestYeeRowAssemblyHasNoFMA(t *testing.T) {
	src, err := os.ReadFile("yeerow_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	if m := regexp.MustCompile(`(?i)\bV?F(N?M(ADD|SUB)|MADDSUB|MSUBADD)\w*`).Find(src); m != nil {
		t.Errorf("yeerow_amd64.s contains the fused instruction %s", m)
	}
}
