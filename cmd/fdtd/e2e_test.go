package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

// buildBinary compiles the fdtd command once per test binary.
func buildBinary(t *testing.T) string {
	t.Helper()
	exe := filepath.Join(t.TempDir(), "fdtd")
	cmd := exec.Command("go", "build", "-o", exe, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return exe
}

func runCmd(t *testing.T, exe string, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(exe, args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", exe, args, err, out)
	}
	return out
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestNetSmoke is the end-to-end acceptance run of the scale-out
// transport: the same small problem solved sequentially, over the
// in-process parallel runtime, over a loopback socket mesh, and across
// real OS processes (-procs) must produce byte-identical final fields.
// `make net-smoke` runs exactly this test.
func TestNetSmoke(t *testing.T) {
	exe := buildBinary(t)
	dir := t.TempDir()
	grid := []string{"-nx", "20", "-ny", "10", "-nz", "10", "-steps", "12", "-quiet"}

	seqDump := filepath.Join(dir, "seq.grid")
	runCmd(t, exe, append([]string{"-build", "seq", "-dump", seqDump}, grid...)...)
	want := mustRead(t, seqDump)

	cases := []struct {
		name string
		args []string
	}{
		{"par-inproc", []string{"-build", "par", "-p", "4"}},
		{"par-socket-tcp", []string{"-build", "par", "-p", "4", "-backend", "socket", "-net", "tcp"}},
		{"par-socket-unix", []string{"-build", "par", "-p", "4", "-backend", "socket", "-net", "unix"}},
		{"procs-2-unix", []string{"-build", "par", "-procs", "2", "-net", "unix"}},
		{"procs-4-tcp", []string{"-build", "par", "-procs", "4", "-net", "tcp"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dump := filepath.Join(dir, tc.name+".grid")
			runCmd(t, exe, append(append(tc.args, "-dump", dump), grid...)...)
			if got := mustRead(t, dump); !bytes.Equal(got, want) {
				t.Fatalf("%s: final Ez differs from the sequential field", tc.name)
			}
		})
	}
}

// TestSweepSmoke runs a tiny scaling sweep end to end.  The sweep
// exits nonzero if any P's fields differ from the sequential run, so
// a printed table means every row passed the bitwise check; the table
// must carry the P=2 row under the modelled-speedup columns, and the
// crossover verdict must follow it.
func TestSweepSmoke(t *testing.T) {
	exe := buildBinary(t)
	out := runCmd(t, exe,
		"-build", "par", "-sweep", "1,2", "-nx", "16", "-ny", "8", "-nz", "8", "-steps", "8")
	if !bytes.Contains(out, []byte("model Sun x")) {
		t.Fatalf("sweep table missing the modelled Sun/Ethernet column:\n%s", out)
	}
	// "   P   par wall   measured x   model Sun x   model IBM-SP x"
	p2 := regexp.MustCompile(`(?m)^ +2 +[0-9.]+s +[0-9.]+ +[0-9.]+ +[0-9.]+$`)
	if !p2.Match(out) {
		t.Fatalf("sweep table missing the P=2 row:\n%s", out)
	}
	if !bytes.Contains(out, []byte("crossover: measured speedup")) {
		t.Fatalf("sweep output missing the crossover line:\n%s", out)
	}
}

// TestBaselineFile: a prior -report artifact attaches as the speedup
// baseline when the workload fingerprints match, and is refused with a
// visible warning (speedup left unset) when they differ — the stale-
// baseline trap the fingerprint exists to catch.
func TestBaselineFile(t *testing.T) {
	exe := buildBinary(t)
	dir := t.TempDir()
	grid := []string{"-nx", "16", "-ny", "8", "-nz", "8", "-steps", "8", "-quiet"}

	baseRep := filepath.Join(dir, "base.json")
	runCmd(t, exe, append([]string{"-build", "par", "-p", "1", "-report", baseRep}, grid...)...)

	// Matching fingerprint: speedup computed from the recorded wall.
	outRep := filepath.Join(dir, "p2.json")
	runCmd(t, exe, append([]string{"-build", "par", "-p", "2", "-baseline-file", baseRep, "-report", outRep}, grid...)...)
	rep := mustRead(t, outRep)
	for _, want := range []string{`"spec_fingerprint"`, `"speedup"`, `"baseline_wall_seconds"`} {
		if !bytes.Contains(rep, []byte(want)) {
			t.Fatalf("report missing %s after -baseline-file:\n%s", want, rep)
		}
	}

	// Different workload (other grid): typed mismatch warning on
	// stderr, run still succeeds, speedup stays unset.
	outRep2 := filepath.Join(dir, "p2-stale.json")
	cmd := exec.Command(exe, "-build", "par", "-p", "2", "-baseline-file", baseRep, "-report", outRep2,
		"-nx", "20", "-ny", "10", "-nz", "10", "-steps", "8", "-quiet")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("mismatched baseline must warn, not fail: %v\n%s", err, out)
	}
	if !bytes.Contains(out, []byte("baseline")) || !bytes.Contains(out, []byte("fingerprint")) {
		t.Fatalf("no fingerprint-mismatch warning in output:\n%s", out)
	}
	if rep2 := mustRead(t, outRep2); bytes.Contains(rep2, []byte(`"speedup"`)) {
		t.Fatalf("stale baseline still produced a speedup:\n%s", rep2)
	}
}

// TestFlagValidation: conflicting flag combinations, and flags that no
// longer exist, must exit with usage status 2 before doing any work.
func TestFlagValidation(t *testing.T) {
	exe := buildBinary(t)
	bad := [][]string{
		{"-build", "seq", "-backend", "socket"},
		{"-build", "par", "-backend", "bogus"},
		{"-build", "par", "-net", "udp"},
		{"-build", "par", "-procs", "2", "-backend", "socket"},
		{"-build", "par", "-procs", "2", "-sweep", "1,2"},
		{"-build", "par", "-procs", "2", "-baseline"},
		{"-build", "par", "-baseline", "-baseline-file", "x.json"},
		{"-build", "seq", "-baseline-file", "x.json"},
		{"-build", "par", "-sweep", "1,2", "-dump", "x.grid"},
		{"-build", "par", "-bench-append"},
		{"-build", "par", "-bench-out", "x.json"},
		{"-worker-rank", "0"},
	}
	for _, args := range bad {
		cmd := exec.Command(exe, args...)
		out, err := cmd.CombinedOutput()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 {
			t.Fatalf("%v: want usage exit 2, got err=%v\n%s", args, err, out)
		}
	}
}
