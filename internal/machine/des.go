package machine

import "fmt"

// Discrete-event replay.  Model.Time charges each bulk-synchronous
// phase the slowest process's compute plus the slowest process's
// communication — a sound upper bound, but one that synchronises
// neighbour-only exchanges globally.  The profile's per-process event
// sequences preserve the actual dependency structure (which process
// waited for which message), and DES replays them with Lamport-style
// virtual clocks, ignoring phase ends:
//
//	work          clock[p] += units * SecPerWork
//	send p -> q   arrival = clock[p] + Latency + bytes*SecPerByte;
//	              clock[p] += bytes*SecPerByte   (serialisation cost)
//	recv q <- p   clock[q] = max(clock[q], arrival of the matching send)
//
// The result is a per-process finish time under the same cost model but
// without artificial global barriers, so DES total <= Time(profile) for
// the same run.  Comparing the two quantifies how much the
// bulk-synchronous approximation overestimates.

// DES replays the profile under the model and returns each process's
// virtual finish time.  It returns an error if the profile is causally
// incomplete (a receive with no matching send) — which cannot happen
// for profiles recorded from completed runs.  Every product sits in an
// explicit float64 conversion so no build fuses a clock update into an
// FMA, and the finish times carry the same bits on every architecture.
func (m Model) DES(f *Profile) (perProc []float64, total float64, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	clock := make([]float64, len(f.evs))
	cursor := make([]int, len(f.evs))
	// arrivals[from][to] is the FIFO of computed arrival times.
	arrivals := make(map[[2]int][]float64)

	// Round-robin replay: a process stalls only on a receive whose
	// matching send has not been replayed yet.
	for {
		progress := false
		done := true
		for p, es := range f.evs {
		replay:
			for ; cursor[p] < len(es); cursor[p]++ {
				switch e := es[cursor[p]]; e.kind {
				case evWork:
					clock[p] += float64(e.units * m.SecPerWork)
				case evSend:
					ser := float64(e.units * m.SecPerByte)
					key := [2]int{p, e.peer}
					arrivals[key] = append(arrivals[key], clock[p]+m.Latency+ser)
					clock[p] += ser
				case evRecv:
					key := [2]int{e.peer, p}
					if len(arrivals[key]) == 0 {
						break replay // wait for the sender's replay to catch up
					}
					clock[p] = max(clock[p], arrivals[key][0])
					arrivals[key] = arrivals[key][1:]
				}
				progress = true
			}
			if cursor[p] < len(es) {
				done = false
			}
		}
		if done {
			break
		}
		if !progress {
			return nil, 0, fmt.Errorf("machine: profile causally incomplete (receive without matching send)")
		}
	}
	for _, c := range clock {
		if c > total {
			total = c
		}
	}
	return clock, total, nil
}
