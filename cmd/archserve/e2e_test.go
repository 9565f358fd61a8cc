package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildBinary compiles the archserve command once per test binary.
func buildBinary(t *testing.T) string {
	t.Helper()
	exe := filepath.Join(t.TempDir(), "archserve")
	cmd := exec.Command("go", "build", "-o", exe, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return exe
}

// freePort grabs an ephemeral TCP port for the server to listen on.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestServeSmoke boots the real binary, exercises the job API end to
// end (compute, cache hit, invalid spec, stats, metrics) and verifies
// a clean SIGTERM drain.
func TestServeSmoke(t *testing.T) {
	exe := buildBinary(t)
	addr := freePort(t)
	cmd := exec.Command(exe, "-addr", addr, "-p", "2", "-workers", "1", "-queue", "4")
	var logs strings.Builder
	cmd.Stdout = &logs
	cmd.Stderr = &logs
	if err := cmd.Start(); err != nil {
		t.Fatalf("start archserve: %v", err)
	}
	defer cmd.Process.Kill()

	base := "http://" + addr
	waitReady(t, base)

	// Compute then cache: origins must differ, results must not.
	first := postPreset(t, base, "small-a", "computed")
	second := postPreset(t, base, "small-a", "cache")
	if first.Result.FieldHash != second.Result.FieldHash ||
		first.Result.Fingerprint != second.Result.Fingerprint {
		t.Fatalf("cache served a different result: %+v vs %+v", first.Result, second.Result)
	}

	// Invalid spec is a 400, not a crash.
	resp, err := http.Post(base+"/v1/jobs", "application/json",
		strings.NewReader(`{"spec":{"NX":2,"NY":2,"NZ":2,"Steps":1,"DT":0.5}}`))
	if err != nil {
		t.Fatalf("POST invalid: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid spec returned %d, want 400", resp.StatusCode)
	}

	var stats struct {
		JobsOK    int64 `json:"jobs_ok"`
		CacheHits int64 `json:"cache_hits"`
	}
	getJSON(t, base+"/v1/stats", &stats)
	if stats.JobsOK != 1 || stats.CacheHits != 1 {
		t.Fatalf("stats = %+v, want jobs_ok 1 cache_hits 1", stats)
	}
	if body := getText(t, base+"/metrics"); !strings.Contains(body, "archserve_cache_hits_total 1") {
		t.Fatalf("metrics missing cache hit counter:\n%s", body)
	}

	// SIGTERM must drain and exit zero.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("signal: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("archserve exited %v after SIGTERM\n%s", err, logs.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("archserve did not drain within 30s\n%s", logs.String())
	}
	if !strings.Contains(logs.String(), "drained cleanly") {
		t.Fatalf("expected a clean drain, logs:\n%s", logs.String())
	}
}

type jobResponse struct {
	Origin string `json:"origin"`
	Result struct {
		Fingerprint string    `json:"fingerprint"`
		FieldHash   string    `json:"field_hash"`
		Probe       []float64 `json:"probe"`
	} `json:"result"`
}

func postPreset(t *testing.T, base, preset, wantOrigin string) jobResponse {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json",
		strings.NewReader(fmt.Sprintf(`{"preset":%q}`, preset)))
	if err != nil {
		t.Fatalf("POST preset %s: %v", preset, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST preset %s: %d %s", preset, resp.StatusCode, body)
	}
	var jr jobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	if jr.Origin != wantOrigin {
		t.Fatalf("preset %s origin %q, want %q", preset, jr.Origin, wantOrigin)
	}
	return jr
}

func waitReady(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatal("archserve never became healthy")
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
}

func getText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return string(b)
}
