//go:build !amd64

package fdtd

// rowBodies lists the bodies this CPU can run: the generic one only.
func rowBodies() []rowBody { return []rowBody{rowGeneric} }

// yeeRow runs yeeRowGeneric's update; there is no packed body here.
func yeeRow(out, a, b, p, q, r, s []float64) { yeeRowGeneric(out, a, b, p, q, r, s) }
