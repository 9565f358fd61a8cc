//go:build amd64 && race

package fdtd

import (
	"runtime"
	"unsafe"
)

// raceRow tells the race detector what yeeRowAVX2 is about to touch:
// the n-element rows at a, b, p, q, r and s are read and the one at
// out is written.  The detector does not see memory accesses made by
// assembly, and the race runs of the kernel tests are the data-race
// check on tile rows.
func raceRow(out, a, b, p, q, r, s *float64, n int) {
	for _, in := range [...]*float64{a, b, p, q, r, s} {
		runtime.RaceReadRange(unsafe.Pointer(in), 8*n)
	}
	runtime.RaceWriteRange(unsafe.Pointer(out), 8*n)
}
