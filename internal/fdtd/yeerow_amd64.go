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

// yeeRowAt runs yeeRowGeneric's update with the active body on the
// n-element rows that start at out, a, b, p, q, r and s.  It checks
// nothing: the caller proves every row lies inside its backing store
// (see proveWindow), as the assembly reads and writes n elements of
// each.
func yeeRowAt(out, a, b, p, q, r, s *float64, n int) {
	if activeRow != rowAVX2 {
		yeeRowGeneric(unsafe.Slice(out, n), unsafe.Slice(a, n), unsafe.Slice(b, n),
			unsafe.Slice(p, n), unsafe.Slice(q, n), unsafe.Slice(r, n), unsafe.Slice(s, n))
		return
	}
	raceRow(out, a, b, p, q, r, s, n)
	yeeRowAVX2(out, a, b, p, q, r, s, n)
}
