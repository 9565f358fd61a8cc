package mesh

import (
	"testing"

	"repro/internal/channel"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/obs"
)

// obsWorkload exercises every phase kind: ghost exchange, collectives,
// and gather I/O.
func obsWorkload(nx, steps int) func(c *Comm) float64 {
	return func(c *Comm) float64 {
		p, r := c.P(), c.Rank()
		topo := NewTopo2D(nx, 3, p, 1)
		xr, _ := topo.Block(r)
		lo := xr.Lo
		local := grid.New3G(xr.Len(), 3, 1, 1, 0, 0)
		local.FillFunc(func(i, j, _ int) float64 { return float64((lo+i)*3 + j) })
		acc := 0.0
		for n := 0; n < steps; n++ {
			c.ExchangeGhostPlanesMulti(grid.AxisX, local)
			c.Work(float64(local.NX() * local.NY()))
			acc += c.AllReduce(float64(r+n), OpSum)
		}
		c.Barrier()
		out := c.BroadcastVec([]float64{acc}, 0)
		c.Gather3DBlocks(local, topo, 0)
		return out[0]
	}
}

// TestObsPhaseAccounting runs the workload under both runtimes and
// checks the collector's core invariants: every phase kind is marked,
// each rank's phase times sum exactly to the wall time, and the obs
// counters agree with the machine profile's independent message count.
func TestObsPhaseAccounting(t *testing.T) {
	const p, nx, steps = 4, 12, 5
	for _, mode := range []Mode{Sim, Par} {
		t.Run(mode.String(), func(t *testing.T) {
			col := obs.New(p)
			prof := machine.NewProfile(p)
			opt := DefaultOptions()
			opt.Obs = col
			opt.Profile = prof
			if _, err := Run(p, mode, opt, obsWorkload(nx, steps)); err != nil {
				t.Fatal(err)
			}
			col.Finish()
			snap := col.Snapshot()

			var sends, bytes int64
			for r := 0; r < p; r++ {
				rs := snap.Ranks[r]
				sends += rs.Sends
				bytes += rs.BytesSent
				if rs.Sends == 0 || rs.Recvs == 0 {
					t.Errorf("rank %d recorded no traffic: %+v", r, rs)
				}
				if busy := rs.Busy(); busy != snap.Wall {
					t.Errorf("rank %d phase times sum to %v, wall is %v", r, busy, snap.Wall)
				}
			}
			if want := int64(prof.Totals().Messages); sends != want {
				t.Errorf("obs counted %d sends, profile counted %d messages", sends, want)
			}
			if want := int64(prof.Totals().Bytes); bytes != want {
				t.Errorf("obs counted %d bytes, profile counted %d", bytes, want)
			}

			// Every phase kind must appear in the span log.
			seen := map[obs.Phase]bool{}
			for _, s := range col.Spans() {
				seen[s.Phase] = true
			}
			for _, ph := range []obs.Phase{obs.PhaseExchange, obs.PhaseCollective, obs.PhaseIO} {
				if !seen[ph] {
					t.Errorf("no %v span recorded", ph)
				}
			}
		})
	}
}

// TestObsChannelStats attaches the per-channel counters under both
// runtimes and cross-checks them against the collector: every message
// the program sent is visible on exactly one channel, every channel
// drained, and Sim and Par count the same traffic on every channel.
func TestObsChannelStats(t *testing.T) {
	const p, nx, steps = 3, 9, 4
	var runs [2]*channel.NetStats
	for i, mode := range []Mode{Sim, Par} {
		col := obs.New(p)
		stats := channel.NewNetStats(p)
		opt := DefaultOptions()
		opt.Obs = col
		opt.ChanStats = stats
		if _, err := Run(p, mode, opt, obsWorkload(nx, steps)); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		col.Finish()
		snap := col.Snapshot()
		var sends int64
		for _, rs := range snap.Ranks {
			sends += rs.Sends
		}
		if got := stats.TotalMessages(); got != sends {
			t.Errorf("%v: channel stats counted %d messages, obs counted %d sends", mode, got, sends)
		}
		for from := 0; from < p; from++ {
			for to := 0; to < p; to++ {
				if m, r := stats.Messages(from, to), stats.Received(from, to); m != r {
					t.Errorf("%v: channel %d->%d: %d sent but %d received", mode, from, to, m, r)
				}
			}
		}
		if stats.MaxHighWater() < 1 {
			t.Errorf("%v: no channel ever held a message", mode)
		}
		runs[i] = stats
	}
	sim, par := runs[0], runs[1]
	for from := 0; from < p; from++ {
		for to := 0; to < p; to++ {
			if s, q := sim.Messages(from, to), par.Messages(from, to); s != q {
				t.Errorf("channel %d->%d: Sim counted %d messages, Par %d", from, to, s, q)
			}
			if s, q := sim.Received(from, to), par.Received(from, to); s != q {
				t.Errorf("channel %d->%d: Sim counted %d receives, Par %d", from, to, s, q)
			}
		}
	}
}

// TestObsSizeMismatchRejected checks the defensive P validation.
func TestObsSizeMismatchRejected(t *testing.T) {
	opt := DefaultOptions()
	opt.Obs = obs.New(2)
	if _, err := Run(3, Sim, opt, func(c *Comm) int { return 0 }); err == nil {
		t.Error("mismatched collector not rejected")
	}
	opt = DefaultOptions()
	opt.ChanStats = channel.NewNetStats(2)
	if _, err := Run(3, Par, opt, func(c *Comm) int { return 0 }); err == nil {
		t.Error("mismatched channel stats not rejected")
	}
}
