package mesh

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/channel"
)

// WireCodec serialises archetype messages for socket transports: the
// payload is the raw little-endian float64 bit pattern of Msg.Data, so
// the decoded values are bit-for-bit the sent ones — NaN payloads,
// signed zeros and all — which is what keeps Theorem 1's bitwise
// determinacy intact across the wire.
//
// Both directions stay on the message arena: encoding consumes the
// message's pooled buffer (ownership passed to the transport at Send,
// exactly as the in-process receiver would consume it) and decoding
// packs into a fresh getBuf buffer that the receiving operation recycles
// after unpacking.  Steady-state exchange therefore allocates nothing on
// either side of the socket.
//
// The two loops live in named functions on purpose.  WireCodec is small
// enough to be inlined into its callers, and the closures of an inlined
// function are compiled again at each call site with nothing inlined
// into them: written in place, every float64 cost two real calls
// (math.Float64bits, AppendUint64) and a 35 KB Figure 2 plane 12 µs to
// encode instead of 2 µs.  A named function is compiled once, here,
// with both calls reduced to a move.
func WireCodec() channel.Codec[Msg] {
	return channel.Codec[Msg]{
		Append: func(dst []byte, m Msg) []byte {
			dst = appendFloats(dst, m.Data)
			putBuf(m.Data)
			return dst
		},
		Decode: func(src []byte) (Msg, error) {
			if len(src)%8 != 0 {
				return Msg{}, fmt.Errorf("mesh: wire payload of %d bytes is not a float64 vector", len(src))
			}
			data := getBuf(len(src) / 8)
			readFloats(data, src)
			return Msg{Data: data}, nil
		},
	}
}

// appendFloats appends the little-endian bit patterns of data to dst,
// growing it at most once.
func appendFloats(dst []byte, data []float64) []byte {
	dst = slices.Grow(dst, 8*len(data))
	for _, v := range data {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// readFloats fills data from the 8*len(data) bytes of src.
func readFloats(data []float64, src []byte) {
	for i := range data {
		data[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}
