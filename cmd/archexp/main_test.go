package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

// buildBinary compiles the archexp command once per test.
func buildBinary(t *testing.T) string {
	t.Helper()
	exe := filepath.Join(t.TempDir(), "archexp")
	if out, err := exec.Command("go", "build", "-o", exe, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return exe
}

// TestFlagValidation: an experiment name must match one of the list
// exactly.  A prefix or an empty name is refused with usage status 2
// before any experiment runs.
func TestFlagValidation(t *testing.T) {
	exe := buildBinary(t)
	for _, name := range []string{"tab", "", "table1 figure2"} {
		out, err := exec.Command(exe, "-exp", name).CombinedOutput()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 {
			t.Fatalf("-exp %q: want usage exit 2, got err=%v\n%s", name, err, out)
		}
		if !bytes.Contains(out, []byte("unknown experiment")) || bytes.Contains(out, []byte("-----")) {
			t.Fatalf("-exp %q: want only the unknown-experiment error, got:\n%s", name, out)
		}
	}
}

// TestSpeedupTable runs the quick Table 1 end to end: it exits 0 only
// if every P's near field matched the sequential run, and each row
// carries the modelled and the measured columns.
func TestSpeedupTable(t *testing.T) {
	exe := buildBinary(t)
	out, err := exec.Command(exe, "-quick", "-exp", "table1").CombinedOutput()
	if err != nil {
		t.Fatalf("archexp -quick -exp table1: %v\n%s", err, out)
	}
	if !bytes.Contains(out, []byte("wall (s)")) || !bytes.Contains(out, []byte("measured x")) {
		t.Fatalf("table missing the measured columns:\n%s", out)
	}
	for _, p := range []string{"2", "4", "8"} {
		row := regexp.MustCompile(`(?m)^Parallel, P=` + p + `( +[0-9.]+){3} +` + p + `( +[0-9.]+){2}$`)
		if !row.Match(out) {
			t.Fatalf("table missing a full P=%s row:\n%s", p, out)
		}
	}
}
