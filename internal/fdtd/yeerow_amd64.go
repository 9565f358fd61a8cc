package fdtd

import "unsafe"

// Implemented in yeerow_amd64.s.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax uint32)
func yeeRowAVX2(out, a, b, p, q, r, s *float64, n int)

// hasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches: CPUID leaf 1 ECX OSXSAVE (27) and
// AVX (28), XCR0 bits 1 and 2 (SSE and AVX state), CPUID leaf 7 EBX
// AVX2 (5).  GOAMD64 plays no part, so a baseline build gets the packed
// body too.
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&(osxsave|avx) != osxsave|avx || xgetbv()&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

// rowBodies lists the bodies this CPU can run, slowest first.
func rowBodies() []rowBody {
	if hasAVX2() {
		return []rowBody{rowGeneric, rowAVX2}
	}
	return []rowBody{rowGeneric}
}

// yeeRow runs yeeRowGeneric's update with the active body.  The
// assembly reads len(out) elements of every input, so each is re-sliced
// to that length first: a short view panics here, as it does in the Go
// loop, instead of being read past its end.
func yeeRow(out, a, b, p, q, r, s []float64) {
	if activeRow != rowAVX2 {
		yeeRowGeneric(out, a, b, p, q, r, s)
		return
	}
	n := len(out)
	a, b, p, q, r, s = a[:n], b[:n], p[:n], q[:n], r[:n], s[:n]
	raceRow(out, a, b, p, q, r, s)
	yeeRowAVX2(unsafe.SliceData(out), unsafe.SliceData(a), unsafe.SliceData(b),
		unsafe.SliceData(p), unsafe.SliceData(q), unsafe.SliceData(r), unsafe.SliceData(s), n)
}
