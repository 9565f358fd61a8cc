package fdtd

import (
	"math"
	"math/bits"
)

// The near-field digest (Result.FieldHash) is a keyed multiset hash of
// pencils.  A pencil is the z-run of one field at one (i, j).  Each
// pencil is hashed word by word, its hash is mixed with its key (field,
// global i, global j), and the keyed hashes are added modulo 2^64 — an
// incremental multiset hash in the manner of Bellare and Micciancio's
// AdHash.  The sum does not depend on the order of its terms, so a
// px-by-py block (which owns whole pencils) can digest its own pencils
// and any reduction of the block sums gives the whole-grid digest.

// laneMul is the odd multiplier of the per-word mixer.
const laneMul = 0x9e3779b97f4a7c15

// mixWord mixes word w into lane state s by a folded multiply: s XOR w
// times laneMul as a 128-bit product, whose high and low halves are
// XORed.  The high half carries every input bit to every output bit, so
// a flip of a high bit (a sign) does not reach only the bits above it,
// where two such flips could cancel as in a plain multiply chain.
func mixWord(s, w uint64) uint64 {
	hi, lo := bits.Mul64(s^w, laneMul)
	return hi ^ lo
}

// mix64 is the MurmurHash3 64-bit finaliser: a bijection in which every
// input bit flips each output bit with probability about 1/2.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// pencilDigest is one pencil's term of the digest, for field f (0..5:
// Ex, Ey, Ez, Hx, Hy, Hz) at global (i, j).  The pencil's values are
// hashed word by word over four independent lanes (value k goes to lane
// k mod 4, which keeps four multiply chains in flight); the lanes and
// the pencil's length are folded into one word, and that is mixed with
// the key.  The key packs into one word one-to-one for i, j < 2^28,
// which MaxCells guarantees.
func pencilDigest(p []float64, f, i, j int) uint64 {
	s0, s1, s2, s3 := uint64(0x243f6a8885a308d3), uint64(0x13198a2e03707344),
		uint64(0xa4093822299f31d0), uint64(0x082efa98ec4e6c89)
	k := 0
	for ; k+4 <= len(p); k += 4 {
		q := p[k : k+4 : k+4]
		s0 = mixWord(s0, math.Float64bits(q[0]))
		s1 = mixWord(s1, math.Float64bits(q[1]))
		s2 = mixWord(s2, math.Float64bits(q[2]))
		s3 = mixWord(s3, math.Float64bits(q[3]))
	}
	switch q := p[k:]; len(q) {
	case 3:
		s2 = mixWord(s2, math.Float64bits(q[2]))
		fallthrough
	case 2:
		s1 = mixWord(s1, math.Float64bits(q[1]))
		fallthrough
	case 1:
		s0 = mixWord(s0, math.Float64bits(q[0]))
	}
	h := s0 ^ bits.RotateLeft64(s1, 16) ^ bits.RotateLeft64(s2, 32) ^ bits.RotateLeft64(s3, 48) ^ uint64(len(p))
	key := uint64(f)<<56 ^ uint64(i)<<28 ^ uint64(j)
	return mix64(h + key*0xc2b2ae3d27d4eb4f)
}
