//go:build amd64 && race

package fdtd

import (
	"runtime"
	"unsafe"
)

// raceRow tells the race detector what yeeRowAVX2 is about to touch:
// the detector does not see memory accesses made by assembly, and the
// race runs of the kernel tests are the data-race check on tile row
// views.
func raceRow(out, a, b, p, q, r, s []float64) {
	for _, in := range [...][]float64{a, b, p, q, r, s} {
		runtime.RaceReadRange(unsafe.Pointer(unsafe.SliceData(in)), 8*len(in))
	}
	runtime.RaceWriteRange(unsafe.Pointer(unsafe.SliceData(out)), 8*len(out))
}
