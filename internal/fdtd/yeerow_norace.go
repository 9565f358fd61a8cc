//go:build amd64 && !race

package fdtd

// raceRow is a no-op outside race builds; see yeerow_race.go.
func raceRow(out, a, b, p, q, r, s *float64, n int) {}
