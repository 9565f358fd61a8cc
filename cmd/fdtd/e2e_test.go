package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
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

// TestFlagValidation: conflicting flag combinations, and flags that no
// longer exist, must exit with usage status 2 before doing any work.
// A removed flag must be refused as unknown, not by a validation rule.
func TestFlagValidation(t *testing.T) {
	exe := buildBinary(t)
	bad := [][]string{
		{"-build", "seq", "-backend", "socket"},
		{"-build", "par", "-backend", "bogus"},
		{"-build", "par", "-net", "udp"},
		{"-build", "par", "-procs", "2", "-backend", "socket"},
		{"-worker-rank", "0"},
	}
	gone := [][]string{
		{"-build", "par", "-sweep", "1,2"},
		{"-build", "par", "-baseline"},
		{"-build", "par", "-baseline-file", "x.json"},
		{"-build", "par", "-bench-append"},
		{"-build", "par", "-bench-out", "x.json"},
	}
	run := func(args []string) []byte {
		cmd := exec.Command(exe, args...)
		out, err := cmd.CombinedOutput()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 {
			t.Fatalf("%v: want usage exit 2, got err=%v\n%s", args, err, out)
		}
		return out
	}
	for _, args := range bad {
		run(args)
	}
	for _, args := range gone {
		if out := run(args); !bytes.Contains(out, []byte("flag provided but not defined")) {
			t.Fatalf("%v: want an unknown-flag error, got:\n%s", args, out)
		}
	}
}
