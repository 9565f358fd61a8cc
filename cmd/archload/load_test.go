package main

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestObsSmoke is the observability-plane smoke test (`make obs-smoke`):
// a 2-node self-contained cluster takes a 20-job open-loop run, and the
// run must yield a populated latency histogram, a retrievable merged
// trace whose spans share one trace id across coordinator and node
// lanes, and a well-formed passing SLO report.
func TestObsSmoke(t *testing.T) {
	res, err := runLoad(loadConfig{
		Cluster:     2,
		Jobs:        20,
		Rate:        50, // open loop: ~0.4s of Poisson arrivals
		Specs:       8,
		Seed:        7,
		SLO:         "p99<30s,err<50%", // generous: smoke checks plumbing, not performance
		SampleTrace: true,
		Quiet:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 20 {
		t.Fatalf("issued %d samples, want 20", res.Total)
	}
	if res.Errs > 0 {
		t.Fatalf("%d transport errors in smoke run", res.Errs)
	}

	// Histograms populated: every request recorded, quantiles ordered.
	if res.Hist.Count != 20 {
		t.Fatalf("histogram count %d, want 20", res.Hist.Count)
	}
	p50, p999 := res.Hist.Quantile(0.5), res.Hist.Quantile(0.999)
	if p50 <= 0 || p999 < p50 {
		t.Fatalf("degenerate histogram: p50=%d p999=%d", p50, p999)
	}

	// SLO report well-formed and passing.
	if res.SLO == nil || !res.SLO.Pass {
		t.Fatalf("SLO report missing or failing: %+v", res.SLO)
	}
	if len(res.SLO.Objectives) != 2 {
		t.Fatalf("SLO evaluated %d objectives, want 2", len(res.SLO.Objectives))
	}
	for _, or := range res.SLO.Objectives {
		if or.Slow.Good+or.Slow.Bad != 20 {
			t.Fatalf("objective %s slow window saw %d samples, want 20", or.Objective, or.Slow.Good+or.Slow.Bad)
		}
	}
	if !strings.Contains(res.SLO.Format(), "verdict: PASS") {
		t.Fatalf("report format lacks verdict:\n%s", res.SLO.Format())
	}

	// Merged trace retrievable, with coordinator + node lanes sharing
	// one trace id and rank-level spans present.
	if res.SampledTrace == "" {
		t.Fatal("no merged trace retrieved")
	}
	var ct struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(res.TraceJSON, &ct); err != nil {
		t.Fatalf("merged trace is not valid JSON: %v", err)
	}
	pids := map[int]bool{}
	ranks := map[int]bool{}
	for _, ev := range ct.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		pids[ev.Pid] = true
		if ev.Tid > 0 {
			ranks[ev.Tid] = true
		}
		if ev.Args["trace"] != res.SampledTrace {
			t.Fatalf("span %q trace arg %v, want %s", ev.Name, ev.Args["trace"], res.SampledTrace)
		}
	}
	if len(pids) < 2 {
		t.Fatalf("merged trace has %d process lanes, want >= 2", len(pids))
	}
	if len(ranks) < 2 {
		t.Fatalf("merged trace has %d rank lanes, want >= 2 (P=2)", len(ranks))
	}

	// The summary archload prints: ordered percentiles from a bucketed
	// histogram, and a throughput.
	if len(res.Hist.Buckets) == 0 {
		t.Error("latency histogram has no buckets")
	}
	qs := []float64{0.50, 0.95, 0.99, 0.999}
	for i := 1; i < len(qs); i++ {
		if lo, hi := res.Hist.Quantile(qs[i-1]), res.Hist.Quantile(qs[i]); hi < lo {
			t.Errorf("p%g=%d above p%g=%d", 100*qs[i-1], lo, 100*qs[i], hi)
		}
	}
	if res.Throughput <= 0 {
		t.Errorf("throughput %.3f jobs/s, want > 0", res.Throughput)
	}
}

// TestObsSmokeSLOFail: the injected-latency hook must push the run over
// a tight latency objective and flip the verdict — proving the SLO gate
// can actually fail.
func TestObsSmokeSLOFail(t *testing.T) {
	res, err := runLoad(loadConfig{
		Cluster:       1,
		Jobs:          10,
		Rate:          50,
		Specs:         4,
		Seed:          11,
		SLO:           "p99<250ms,err<1%",
		InjectLatency: 400 * time.Millisecond,
		Quiet:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SLO == nil || res.SLO.Pass {
		t.Fatalf("injected 400ms latency should fail p99<250ms: %+v", res.SLO)
	}
	var latObj *string
	for _, or := range res.SLO.Objectives {
		if or.Objective == "p99<250ms" {
			if or.Pass {
				t.Fatalf("latency objective passed despite injection: %+v", or)
			}
			if or.Observed < 0.4 {
				t.Fatalf("observed p99 %.3fs, want >= 0.4 (injection included)", or.Observed)
			}
			// The burn rate reflects the breach: slow-window burn must
			// exceed 1 (budget overrun) by a wide margin when every
			// request is slow.
			if or.Slow.Burn < 10 {
				t.Fatalf("slow burn %.2f, want >> 1 when 100%% of requests breach", or.Slow.Burn)
			}
			s := or.Objective
			latObj = &s
		}
	}
	if latObj == nil {
		t.Fatal("latency objective missing from report")
	}
}
