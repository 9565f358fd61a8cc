//go:build race

package channel

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation allocates, so allocation counts only hold without it.
const raceEnabled = true
