package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/serve"
)

// chromeTrace is the slice of a Chrome trace file the assertions need.
type chromeTrace struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func fetchMergedTrace(t *testing.T, front, trace string) chromeTrace {
	t.Helper()
	resp, err := http.Get(front + "/v1/jobs/" + trace + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace fetch status %d: %s", resp.StatusCode, raw)
	}
	var ct chromeTrace
	if err := json.Unmarshal(raw, &ct); err != nil {
		t.Fatalf("decode merged trace: %v", err)
	}
	return ct
}

// TestClusterTraceEndToEnd: one traced job must produce a merged Chrome
// trace with the coordinator's forward span, the node's service spans
// and per-rank phase spans — all carrying the same trace id.
func TestClusterTraceEndToEnd(t *testing.T) {
	tc := newTestCluster(t, "n0", "n1")
	spec, _ := tc.specWithPrimary(t, "n0", 0)
	cr, _ := tc.submit(t, spec)
	if cr.Trace == "" {
		t.Fatal("cluster response carries no trace id")
	}
	if _, err := obs.ParseTraceID(cr.Trace); err != nil {
		t.Fatalf("trace id %q does not parse: %v", cr.Trace, err)
	}

	ct := fetchMergedTrace(t, tc.front.URL, cr.Trace)
	pids := map[int]bool{}
	rankLanes := map[[2]int]bool{}
	var sawForward, sawExecute bool
	for _, ev := range ct.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		pids[ev.Pid] = true
		if ev.Args["trace"] != cr.Trace {
			t.Fatalf("span %q carries trace %v, want %s", ev.Name, ev.Args["trace"], cr.Trace)
		}
		if ev.Tid > 0 { // rank lanes are tid >= 1; the service lane is tid 0
			rankLanes[[2]int{ev.Pid, ev.Tid}] = true
		}
		if strings.HasPrefix(ev.Name, "forward to ") {
			sawForward = true
		}
		if ev.Name == "execute" {
			sawExecute = true
		}
	}
	if len(pids) < 2 {
		t.Fatalf("merged trace has %d process lanes, want >= 2 (coordinator + node)", len(pids))
	}
	if !sawForward {
		t.Fatal("merged trace lacks the coordinator's forward span")
	}
	if !sawExecute {
		t.Fatal("merged trace lacks the node's execute span")
	}
	if len(rankLanes) < 2 {
		t.Fatalf("merged trace has %d rank lanes, want >= 2 (P=2 job)", len(rankLanes))
	}
}

// TestClusterTraceCacheHit: a repeat submission answered from the node
// cache gets its own trace id whose bundle records the cache hit.  The
// first submission goes to the node directly, so the coordinator has
// not stored the answer and forwards the repeat.
func TestClusterTraceCacheHit(t *testing.T) {
	tc := newTestCluster(t, "n0")
	spec, _ := tc.specWithPrimary(t, "n0", 100)
	body, _ := json.Marshal(serve.JobRequest{Spec: &spec})
	resp, err := http.Post(tc.nodes["n0"].URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var first serve.JobResponse
	err = json.NewDecoder(resp.Body).Decode(&first)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("direct submit: status %d, %v", resp.StatusCode, err)
	}
	second, _ := tc.submit(t, spec)
	if second.Origin != "cache" {
		t.Fatalf("second submit origin %q, want cache", second.Origin)
	}
	if second.Trace == "" || second.Trace == first.Trace {
		t.Fatalf("cache hit trace %q should be fresh (first was %q)", second.Trace, first.Trace)
	}
	ct := fetchMergedTrace(t, tc.front.URL, second.Trace)
	sawCache := false
	for _, ev := range ct.TraceEvents {
		if ev.Ph == "X" && ev.Name == "cache" {
			sawCache = true
		}
	}
	if !sawCache {
		t.Fatal("cache-hit trace lacks the node's cache span")
	}
}

// TestClusterTraceHeaderAdopted: a caller-minted trace id survives the
// coordinator hop and names the merged trace.
func TestClusterTraceHeaderAdopted(t *testing.T) {
	tc := newTestCluster(t, "n0")
	spec, _ := tc.specWithPrimary(t, "n0", 200)
	body, _ := json.Marshal(map[string]any{"spec": &spec})
	req, _ := http.NewRequest(http.MethodPost, tc.front.URL+"/v1/jobs", strings.NewReader(string(body)))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceHeader, "00000000deadbeef")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var cr ClusterResponse
	if err := json.Unmarshal(raw, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Trace != "00000000deadbeef" {
		t.Fatalf("adopted trace %q, want 00000000deadbeef", cr.Trace)
	}
	if got := resp.Header.Get(obs.TraceHeader); got != "00000000deadbeef" {
		t.Fatalf("response header trace %q", got)
	}
	fetchMergedTrace(t, tc.front.URL, cr.Trace) // must exist
}

// TestClusterMetricsLint: both the coordinator's and a node's /metrics
// output must satisfy the Prometheus text-format grammar after traffic
// has flowed (histograms populated, per-node labels emitted).
func TestClusterMetricsLint(t *testing.T) {
	tc := newTestCluster(t, "n0", "n1")
	spec, _ := tc.specWithPrimary(t, "n1", 300)
	tc.submit(t, spec)

	for name, url := range map[string]string{
		"coordinator": tc.front.URL + "/metrics",
		"node":        tc.nodes["n1"].URL + "/metrics",
	} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s metrics status %d", name, resp.StatusCode)
		}
		if err := obs.LintProm(strings.NewReader(string(raw))); err != nil {
			t.Errorf("%s /metrics fails the exposition grammar: %v\n%s", name, err, raw)
		}
		if name == "coordinator" && !strings.Contains(string(raw), "archcoord_forward_latency_seconds_bucket") {
			t.Errorf("coordinator metrics lack the forward-latency histogram:\n%s", raw)
		}
		if name == "node" && !strings.Contains(string(raw), "archserve_job_latency_seconds_bucket") {
			t.Errorf("node metrics lack the job-latency histogram:\n%s", raw)
		}
	}
}
