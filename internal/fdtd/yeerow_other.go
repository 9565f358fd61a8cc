//go:build !amd64

package fdtd

import "unsafe"

// rowBodies lists the bodies this CPU can run: the generic one only.
func rowBodies() []rowBody { return []rowBody{rowGeneric} }

// yeeRowAt runs yeeRowGeneric's update on the n-element rows that start
// at out, a, b, p, q, r and s; there is no packed body here.  The
// caller proves every row lies inside its backing store (see
// proveWindow).
func yeeRowAt(out, a, b, p, q, r, s *float64, n int) {
	yeeRowGeneric(unsafe.Slice(out, n), unsafe.Slice(a, n), unsafe.Slice(b, n),
		unsafe.Slice(p, n), unsafe.Slice(q, n), unsafe.Slice(r, n), unsafe.Slice(s, n))
}
