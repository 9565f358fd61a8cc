package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

// syntheticSnapshot builds a snapshot with exact, hand-checkable times.
func syntheticSnapshot() Snapshot {
	mk := func(rank int, compute, exchange, collective time.Duration, sends, bytes int64) RankSnapshot {
		r := RankSnapshot{Rank: rank, Sends: sends, Recvs: sends, BytesSent: bytes, BytesRecvd: bytes}
		r.Phase[PhaseCompute] = compute
		r.Phase[PhaseExchange] = exchange
		r.Phase[PhaseCollective] = collective
		return r
	}
	return Snapshot{
		P:        2,
		Wall:     10 * time.Second,
		Finished: true,
		Ranks: []RankSnapshot{
			mk(0, 6*time.Second, 3*time.Second, 1*time.Second, 100, 8000),
			mk(1, 4*time.Second, 5*time.Second, 1*time.Second, 100, 8000),
		},
	}
}

func TestBuildReportMath(t *testing.T) {
	rep := BuildReport("synthetic", syntheticSnapshot())
	approx := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }

	if !approx(rep.WallSeconds, 10) {
		t.Errorf("wall = %v", rep.WallSeconds)
	}
	// Mean compute (6+4)/2 = 5; imbalance 6/5 = 1.2.
	if !approx(rep.ComputeSeconds, 5) || !approx(rep.LoadImbalance, 1.2) {
		t.Errorf("compute %v, imbalance %v", rep.ComputeSeconds, rep.LoadImbalance)
	}
	// Mean comm: ((3+1)+(5+1))/2 = 5; ratio 5/5 = 1.
	if !approx(rep.CommSeconds, 5) || !approx(rep.CommToComputeRatio, 1) {
		t.Errorf("comm %v, ratio %v", rep.CommSeconds, rep.CommToComputeRatio)
	}
	if rep.TotalMessages != 200 || rep.TotalBytes != 16000 {
		t.Errorf("messages %d bytes %d", rep.TotalMessages, rep.TotalBytes)
	}
	// Mean phase seconds sum to wall.
	var sum float64
	for _, s := range rep.PhaseSeconds {
		sum += s
	}
	if !approx(sum, rep.WallSeconds) {
		t.Errorf("phase means sum to %v, wall %v", sum, rep.WallSeconds)
	}
	// Per-rank busy equals wall.
	for _, rr := range rep.Ranks {
		if !approx(rr.BusySeconds, 10) {
			t.Errorf("rank %d busy %v", rr.Rank, rr.BusySeconds)
		}
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	rep := BuildReport("synthetic", syntheticSnapshot())
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back RunReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.P != rep.P || back.WallSeconds != rep.WallSeconds || len(back.Ranks) != len(rep.Ranks) {
		t.Errorf("round trip mismatch: %+v vs %+v", back, rep)
	}
}

func TestReportFormat(t *testing.T) {
	rep := BuildReport("synthetic run", syntheticSnapshot())
	out := rep.Format()
	for _, want := range []string{"synthetic run", "P=2", "load imbalance 1.200", "compute (s)", "exchange (s)", "P0", "P1", "mean"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted report missing %q:\n%s", want, out)
		}
	}
}
