//go:build !race

package channel

const raceEnabled = false
