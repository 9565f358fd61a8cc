package sched

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/trace"
)

// nopOps is a backend stub so the Ctx hot path can be measured in
// isolation from scheduling machinery.
type nopOps[T any] struct{ zero T }

func (n *nopOps[T]) send(from, to int, v T)   {}
func (n *nopOps[T]) recv(from, to int) T      { return n.zero }
func (n *nopOps[T]) step(id int, name string) {}
func (n *nopOps[T]) flush(id int)             {}

// TestInstrumentationAllocs is the zero-overhead guarantee: the
// collector hook must add no allocations to Send/Recv/Step — neither
// when disabled (nil collector) nor when enabled with a byte sizer.
func TestInstrumentationAllocs(t *testing.T) {
	run := func(name string, ctx *Ctx[int]) {
		t.Run(name, func(t *testing.T) {
			if got := testing.AllocsPerRun(100, func() {
				ctx.Send(0, 7)
				ctx.Recv(0)
				ctx.Step("s")
			}); got != 0 {
				t.Errorf("Send/Recv/Step allocated %v times per run, want 0", got)
			}
		})
	}
	run("disabled", &Ctx[int]{id: 0, p: 1, ops: &nopOps[int]{}})
	run("enabled", &Ctx[int]{
		id: 0, p: 1, ops: &nopOps[int]{},
		col:   obs.New(1),
		bytes: func(int) int { return 8 },
	})
}

// countsOf projects a trace into per-rank send/recv/step totals.
func countsOf(tr interface{ Events() []trace.Event }, p int) (sends, recvs, steps []int64) {
	sends, recvs, steps = make([]int64, p), make([]int64, p), make([]int64, p)
	for _, e := range tr.Events() {
		switch e.Kind {
		case trace.Send:
			sends[e.Proc]++
		case trace.Recv:
			recvs[e.Proc]++
		case trace.Step:
			steps[e.Proc]++
		}
	}
	return
}

// TestCollectorMatchesTrace is the acceptance cross-check: on the same
// run, the obs counters and the trace recorder must agree rank by rank,
// for both runtimes.
func TestCollectorMatchesTrace(t *testing.T) {
	for _, mode := range []string{"controlled", "concurrent"} {
		t.Run(mode, func(t *testing.T) {
			tr := trace.New()
			col := obs.New(2)
			opt := Options[int]{
				Trace:     tr,
				Collector: col,
				MsgBytes:  func(int) int { return 8 },
			}
			var err error
			if mode == "controlled" {
				_, err = RunControlled(pingPong(100), Lowest{}, opt)
			} else {
				_, err = RunConcurrent(pingPong(100), opt)
			}
			if err != nil {
				t.Fatal(err)
			}
			col.Finish()
			sends, recvs, steps := countsOf(tr, 2)
			snap := col.Snapshot()
			for rank := 0; rank < 2; rank++ {
				r := snap.Ranks[rank]
				if r.Sends != sends[rank] || r.Recvs != recvs[rank] || r.Steps != steps[rank] {
					t.Errorf("rank %d: obs (s=%d r=%d st=%d) vs trace (s=%d r=%d st=%d)",
						rank, r.Sends, r.Recvs, r.Steps, sends[rank], recvs[rank], steps[rank])
				}
				if want := int64(8 * sends[rank]); r.BytesSent != want {
					t.Errorf("rank %d: bytes sent %d, want %d", rank, r.BytesSent, want)
				}
			}
			// pingPong(100) exact totals: each rank sends and receives 100.
			if snap.Ranks[0].Sends != 100 || snap.Ranks[1].Recvs != 100 {
				t.Errorf("unexpected totals: %+v", snap.Ranks)
			}
		})
	}
}
