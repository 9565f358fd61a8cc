package fdtd

// rowBody names one implementation of yeeRowAt.
type rowBody int

// Row bodies.
const (
	// rowGeneric is the Go loop; it runs on every build.
	rowGeneric rowBody = iota
	// rowAVX2 is the four-wide AVX2 loop in yeerow_amd64.s.
	rowAVX2
)

func (b rowBody) String() string {
	switch b {
	case rowGeneric:
		return "generic"
	case rowAVX2:
		return "avx2"
	}
	return "rowBody(?)"
}

// activeRow is the body yeeRowAt runs: the fastest one the CPU supports,
// chosen once at package init.  Tests switch it to run every body;
// nothing else writes it.
var activeRow = bestRowBody()

func bestRowBody() rowBody {
	bodies := rowBodies()
	return bodies[len(bodies)-1]
}

// yeeRowGeneric is the one Yee update, over one z-row:
//
//	out[k] = a[k]*out[k] + b[k]*((p[k]-q[k]) - (r[k]-s[k]))
//
// for k in [0, len(out)).  All six components of both half-steps have
// this shape over shifted rows (see updateERange).  The inputs may
// be longer than out; a shorter one panics on the re-slice (row views
// are capacity-clamped).  The explicit float64 conversions forbid the
// compiler to fuse a product and a sum into one FMA, which it does on
// arm64, ppc64le, s390x and riscv64: every build then rounds every
// product, and its bits are the amd64 bits.
func yeeRowGeneric(out, a, b, p, q, r, s []float64) {
	a, b = a[:len(out)], b[:len(out)]
	p, q = p[:len(out)], q[:len(out)]
	r, s = r[:len(out)], s[:len(out)]
	for k := range out {
		out[k] = float64(a[k]*out[k]) + float64(b[k]*((p[k]-q[k])-(r[k]-s[k])))
	}
}
