package mesh

import (
	"math"
	"testing"
)

// TestWireCodecRoundTripBits pins the wire format to the bits: whatever
// float64 goes in — NaNs with payloads, either zero, subnormals,
// infinities — the same 64 bits come out, in the same order, behind
// whatever the destination already held.
func TestWireCodecRoundTripBits(t *testing.T) {
	bits := []uint64{
		0x0000000000000000, // +0
		0x8000000000000000, // -0
		0x0000000000000001, // smallest subnormal
		0x800fffffffffffff, // largest subnormal, negative
		0x0010000000000000, // smallest normal
		0x3ff0000000000000, // 1
		0x7fefffffffffffff, // largest finite
		0x7ff0000000000000, // +Inf
		0xfff0000000000000, // -Inf
		0x7ff8000000000000, // quiet NaN
		0x7ff0000000000001, // signalling NaN, smallest payload
		0xfff8dead0000beef, // negative quiet NaN with a payload
		0x7ff7ffffffffffff, // signalling NaN, largest payload
	}
	c := WireCodec()
	for _, n := range []int{0, 1, len(bits), 64, 1000} {
		// Pooled and unpooled sizes alike: Append owns (and recycles) the
		// vector, so it is built fresh for each case.
		data := getBuf(n)
		for i := range data {
			data[i] = math.Float64frombits(bits[i%len(bits)] ^ uint64(i/len(bits)))
		}
		want := make([]uint64, n)
		for i, v := range data {
			want[i] = math.Float64bits(v)
		}
		prefix := []byte{0xde, 0xad, 0xbe}
		enc := c.Append(append([]byte(nil), prefix...), Msg{Data: data})
		if len(enc) != len(prefix)+8*n || string(enc[:len(prefix)]) != string(prefix) {
			t.Fatalf("n=%d: encoded %d bytes behind a %d-byte prefix, want %d with the prefix kept",
				n, len(enc), len(prefix), len(prefix)+8*n)
		}
		m, err := c.Decode(enc[len(prefix):])
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if len(m.Data) != n {
			t.Fatalf("n=%d: decoded %d values", n, len(m.Data))
		}
		for i, v := range m.Data {
			if got := math.Float64bits(v); got != want[i] {
				t.Fatalf("n=%d: value %d came back as %016x, went in as %016x", n, i, got, want[i])
			}
		}
		putBuf(m.Data)
	}
	if _, err := c.Decode(make([]byte, 12)); err == nil {
		t.Fatal("a 12-byte payload decoded as a float64 vector")
	}
}
