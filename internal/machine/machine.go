// Package machine provides the performance model that stands in for the
// paper's parallel testbeds (a network of Sun workstations and an IBM
// SP).  The benchmark host for this reproduction has a single CPU, so
// wall-clock parallel speedup is physically unobservable; instead, the
// mesh runtime records the *actual* work performed and messages sent by
// each process (a Profile; see "Record a profile" in
// docs/mesh-archetype.md), and a Model — a LogGP-style cost model with
// a per-work-unit compute cost and per-message latency/bandwidth costs
// — converts those real counts into simulated execution times.
//
// The model is deliberately simple (bulk-synchronous phases; per phase,
// time = max over processes of compute + communication cost), because
// the paper's claims are about the *shape* of the speedup curves, not
// absolute times: speedup grows with P, sub-linearly, and scales better
// on the low-latency IBM SP than on the Ethernet-connected Suns.
package machine

import (
	"fmt"
	"math"
	"sync"
)

// Model is a machine performance model.
type Model struct {
	Name string
	// SecPerWork is the time one process needs for one work unit (for
	// the FDTD code, one cell update).  Calibrate it from a measured
	// sequential run with Calibrate, or use a preset.
	SecPerWork float64
	// Latency is the fixed per-message cost in seconds (LogGP's L+o).
	Latency float64
	// SecPerByte is the per-byte transfer cost in seconds (LogGP's G).
	SecPerByte float64
}

// SunEthernet models the paper's "network of Sun workstations":
// mid-1990s SPARCstations on shared 10 Mbit/s Ethernet — slow
// processors, and above all high message latency.
func SunEthernet() Model {
	return Model{
		Name: "network of Suns (10 Mbit/s Ethernet)",
		// ~0.5M field-component updates/s: a ~5 MFLOPS-sustained
		// mid-90s SPARCstation running Fortran M.
		SecPerWork: 2e-6,
		Latency:    1.5e-3, // TCP/IP-over-Ethernet message latency
		SecPerByte: 8.0 / 10e6,
	}
}

// IBMSP models the paper's IBM SP: faster nodes and a dedicated
// high-performance switch with far lower latency.
func IBMSP() Model {
	return Model{
		Name:       "IBM SP (high-performance switch)",
		SecPerWork: 2e-7, // ~5 Mcell-updates/s, POWER2-class CPU
		Latency:    4e-5, // ~40 us MPL latency
		SecPerByte: 1.0 / 35e6,
	}
}

// Calibrate returns a copy of the model anchored to a measured
// execution on this host: SecPerWork becomes seconds/totalWork, and the
// communication costs are scaled by the same factor so that the
// machine's compute-to-communication balance — the property that
// determines the *shape* of its speedup curves — is preserved.
// (Calibrating only the compute cost would pair a modern CPU with a
// 1990s network and reproduce neither machine.)
func (m Model) Calibrate(totalWork float64, measuredSeconds float64) Model {
	if totalWork <= 0 {
		panic("machine: totalWork must be positive")
	}
	newSecPerWork := measuredSeconds / totalWork
	factor := newSecPerWork / m.SecPerWork
	m.SecPerWork = newSecPerWork
	m.Latency *= factor
	m.SecPerByte *= factor
	return m
}

// eventKind classifies a recorded event.
type eventKind uint8

const (
	evWork eventKind = iota
	evSend
	evRecv
	evPhaseEnd
)

type event struct {
	kind  eventKind
	peer  int
	units float64 // work units (evWork) or payload bytes (evSend)
}

// Profile records the execution profile of one parallel run: per
// process, the ordered sequence of its work, sends, receives and
// phase ends.  Processes record independently and may be in different
// phases at the same wall-clock moment, so an event belongs to the
// phase its own process has reached, never to a global "current"
// phase.  Model.Time, Breakdown and SequentialTime fold the sequences
// into bulk-synchronous phases; Model.DES replays them.  All methods
// are safe for concurrent use, and the recording methods are no-ops on
// a nil *Profile, so the runtime records without a branch.
type Profile struct {
	mu  sync.Mutex
	evs [][]event
}

// NewProfile returns an empty profile for p processes.
func NewProfile(p int) *Profile {
	if p <= 0 {
		panic(fmt.Sprintf("machine: profile needs p > 0, got %d", p))
	}
	return &Profile{evs: make([][]event, p)}
}

// P returns the process count.
func (f *Profile) P() int { return len(f.evs) }

func (f *Profile) add(proc int, e event) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.evs[proc] = append(f.evs[proc], e)
}

// Work records units of compute work on proc.
func (f *Profile) Work(proc int, units float64) {
	f.add(proc, event{kind: evWork, units: units})
}

// Send records a message of the given payload size from proc to peer.
func (f *Profile) Send(proc, peer, bytes int) {
	f.add(proc, event{kind: evSend, peer: peer, units: float64(bytes)})
}

// Recv records a (blocking) receive on proc from peer.
func (f *Profile) Recv(proc, peer int) {
	f.add(proc, event{kind: evRecv, peer: peer})
}

// EndPhase closes proc's current bulk-synchronous phase.
func (f *Profile) EndPhase(proc int) {
	f.add(proc, event{kind: evPhaseEnd})
}

// Totals summarises a profile.
type Totals struct {
	Work     float64 // work units over all processes
	Messages int     // messages, each counted once
	Bytes    int64   // payload bytes, each message counted once
	Phases   int     // bulk-synchronous phases
	Events   int     // work, send and receive events (what DES replays)
}

// Totals returns the profile's totals.
func (f *Profile) Totals() Totals {
	_, t := f.fold()
	return t
}

// phase is one bulk-synchronous step: per process, its compute work
// and the messages and bytes it sent or received.
type phase struct {
	work  []float64
	msgs  []int
	bytes []int64
}

// fold sorts the recorded events into bulk-synchronous phases.  Each
// message is charged to both endpoints in the sender's phase.
func (f *Profile) fold() ([]phase, Totals) {
	f.mu.Lock()
	defer f.mu.Unlock()
	p := len(f.evs)
	var phs []phase
	var t Totals
	for proc, es := range f.evs {
		ph := 0
		for _, e := range es {
			for len(phs) <= ph {
				phs = append(phs, phase{work: make([]float64, p), msgs: make([]int, p), bytes: make([]int64, p)})
			}
			switch e.kind {
			case evWork:
				phs[ph].work[proc] += e.units
			case evSend:
				b := int64(e.units)
				phs[ph].msgs[proc]++
				phs[ph].msgs[e.peer]++
				phs[ph].bytes[proc] += b
				phs[ph].bytes[e.peer] += b
				t.Messages++
				t.Bytes += b
			case evPhaseEnd:
				ph++
				continue
			}
			t.Events++
		}
	}
	for _, ph := range phs {
		for _, w := range ph.work {
			t.Work += w
		}
	}
	t.Phases = len(phs)
	return phs, t
}

// Breakdown splits a simulated execution time into its compute and
// communication components.
type Breakdown struct {
	Compute, Comm float64
}

// phaseCosts returns, per phase of the profile, the slowest process's
// compute time and the slowest process's communication time.  The
// products of the communication cost sit in explicit float64
// conversions so no build fuses them into an FMA.
func (m Model) phaseCosts(f *Profile) []Breakdown {
	phs, _ := f.fold()
	costs := make([]Breakdown, len(phs))
	for i, ph := range phs {
		for proc := range ph.work {
			costs[i].Compute = max(costs[i].Compute, ph.work[proc]*m.SecPerWork)
			costs[i].Comm = max(costs[i].Comm, float64(float64(ph.msgs[proc])*m.Latency)+float64(float64(ph.bytes[proc])*m.SecPerByte))
		}
	}
	return costs
}

// Time converts the profile into a simulated execution time under the
// model: the sum over phases of the slowest process's compute time plus
// the slowest process's communication time.  This is the
// bulk-synchronous bound — every collective in the mesh archetype
// synchronises its participants (neighbour-only exchanges are slightly
// overestimated, which only makes the reported speedups conservative).
func (m Model) Time(f *Profile) float64 {
	total := 0.0
	for _, c := range m.phaseCosts(f) {
		total += c.Compute + c.Comm
	}
	return total
}

// Breakdown computes the compute/communication split of Time — the
// quantity the message-combining and reduction ablations move.  Each
// component sums the per-phase maxima, so Compute + Comm equals Time up
// to rounding.
func (m Model) Breakdown(f *Profile) Breakdown {
	var b Breakdown
	for _, c := range m.phaseCosts(f) {
		b.Compute += c.Compute
		b.Comm += c.Comm
	}
	return b
}

// SequentialTime returns the model's time for executing the profile's
// total work on one process with no communication — the denominator of
// an "ideal speedup" comparison.
func (m Model) SequentialTime(f *Profile) float64 {
	return f.Totals().Work * m.SecPerWork
}

// Speedup is the paper's definition: execution time for the original
// sequential code divided by execution time for the parallel code.
func Speedup(seqSeconds, parSeconds float64) float64 {
	if parSeconds <= 0 {
		return math.Inf(1)
	}
	return seqSeconds / parSeconds
}

// Efficiency is speedup divided by process count.
func Efficiency(speedup float64, p int) float64 {
	return speedup / float64(p)
}
