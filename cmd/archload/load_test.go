package main

import (
	"encoding/json"
	"testing"
)

// TestObsSmoke is the observability-plane smoke test: a 2-node
// self-contained cluster takes a 20-job open-loop run, and the run must
// yield a populated latency histogram, a retrievable merged trace whose
// spans share one trace id across coordinator and node lanes.
func TestObsSmoke(t *testing.T) {
	res, err := runLoad(loadConfig{
		Cluster:     2,
		Jobs:        20,
		Rate:        50, // open loop: ~0.4s of Poisson arrivals
		Specs:       8,
		Seed:        7,
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
