package main

import (
	"regexp"
	"testing"
)

func toyConfig(traced bool) runConfig {
	return runConfig{seed: 1, seconds: 0.2, traced: traced, sz: toySizes()}
}

// TestWorkloadsEmitTheContract runs every workload at toy size, both
// passes, and holds the output to BENCHMARK.json: same workloads, every
// declared metric emitted in its declared unit and nothing undeclared
// (runOne's conform), well-formed names, every check passed, and a
// traced budget whose parts add up to its wall.
func TestWorkloadsEmitTheContract(t *testing.T) {
	c, err := loadContract()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%s names %d workloads, the benchmark has %d", contractFile, len(c.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in %s, %q in the benchmark", i, c.Workloads[i].Name, contractFile, w.name)
		}
		if !name.MatchString(w.name) {
			t.Errorf("workload name %q is malformed", w.name)
		}
		for _, traced := range []bool{false, true} {
			res, err := runOne(c, w, toyConfig(traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.correct() {
				t.Errorf("%s traced=%v: %d of %d operations failed", w.name, traced, res.Failed, res.Attempted)
			}
			for _, m := range res.Metrics {
				if !name.MatchString(m.Name) {
					t.Errorf("metric name %q is malformed", m.Name)
				}
			}
			if !traced {
				for _, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %g, want > 0", w.name, m.Name, m.Value)
					}
				}
				continue
			}
			if len(res.Budget) == 0 || res.TileError > 0.05 {
				t.Errorf("%s: budget %+v misses its wall of %g s by %.1f%%, want <= 5%%",
					w.name, res.Budget, res.BudgetWall, 100*res.TileError)
			}
			if len(res.trace.spans) == 0 {
				t.Errorf("%s: traced pass recorded no spans", w.name)
			}
		}
	}
}

// TestCorruptOracleFailsTheRun proves the output check can fail: with
// the expected answers flipped, every workload must report failures.
func TestCorruptOracleFailsTheRun(t *testing.T) {
	c, err := loadContract()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		cfg := toyConfig(false)
		cfg.corruptOracle = true
		res, err := runOne(c, w, cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Failed == 0 || res.correct() {
			t.Errorf("%s: corrupted oracle went unnoticed (%d attempted, %d failed)", w.name, res.Attempted, res.Failed)
		}
	}
}
