package obs

import (
	"strings"
	"testing"
)

func TestLintPromAccepts(t *testing.T) {
	good := `# HELP up Whether the target is up.
# TYPE up gauge
up 1
# HELP req_total Requests served.
# TYPE req_total counter
req_total{method="get",path="/v1/jobs"} 10
req_total{method="post",path="a \"quoted\" \\ path\nwith newline"} 2
# HELP lat_seconds Latency.
# TYPE lat_seconds histogram
lat_seconds_bucket{le="0.1"} 5
lat_seconds_bucket{le="0.5"} 9
lat_seconds_bucket{le="+Inf"} 10
lat_seconds_sum 1.25
lat_seconds_count 10
`
	if err := LintProm(strings.NewReader(good)); err != nil {
		t.Fatalf("good exposition rejected: %v", err)
	}
}

// TestPromSchema: the schema reduction keeps HELP/TYPE and label sets
// but drops values and collapses histogram bucket boundaries — two
// runs of the same server reduce to identical schemas even though
// every number (and every populated bucket) differs.
func TestPromSchema(t *testing.T) {
	runA := `# HELP lat_seconds Latency.
# TYPE lat_seconds histogram
lat_seconds_bucket{le="0.1"} 5
lat_seconds_bucket{le="0.5"} 9
lat_seconds_bucket{le="+Inf"} 10
lat_seconds_sum 1.25
lat_seconds_count 10
# HELP jobs_total Jobs.
# TYPE jobs_total counter
jobs_total{status="ok"} 3
`
	runB := `# HELP lat_seconds Latency.
# TYPE lat_seconds histogram
lat_seconds_bucket{le="0.2"} 1
lat_seconds_bucket{le="+Inf"} 2
lat_seconds_sum 0.4
lat_seconds_count 2
# HELP jobs_total Jobs.
# TYPE jobs_total counter
jobs_total{status="ok"} 99
`
	a, err := PromSchema(strings.NewReader(runA))
	if err != nil {
		t.Fatal(err)
	}
	b, err := PromSchema(strings.NewReader(runB))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Fatalf("schemas differ across runs:\n%v\nvs\n%v", a, b)
	}
	joined := strings.Join(a, "\n")
	for _, want := range []string{"# HELP lat_seconds Latency.", `lat_seconds_bucket{le="*"}`, `jobs_total{status="ok"}`} {
		if !strings.Contains(joined, want) {
			t.Fatalf("schema missing %q:\n%s", want, joined)
		}
	}
	if strings.Contains(joined, " 5") || strings.Contains(joined, "1.25") {
		t.Fatalf("schema retains sample values:\n%s", joined)
	}
	if _, err := PromSchema(strings.NewReader("bad line {{{\n")); err == nil {
		t.Fatal("malformed sample accepted")
	}
}

func TestLintPromRejects(t *testing.T) {
	cases := map[string]string{
		"type before help":   "# TYPE x counter\n# HELP x h\nx 1\n",
		"sample before type": "# HELP x h\nx 1\n",
		"reopened family":    "# HELP a h\n# TYPE a counter\na 1\n# HELP b h\n# TYPE b counter\nb 1\na{l=\"2\"} 2\n",
		"raw quote in label": "# HELP x h\n# TYPE x counter\nx{l=\"a\"b\"} 1\n",
		"bad escape":         "# HELP x h\n# TYPE x counter\nx{l=\"a\\t\"} 1\n",
		"bad value":          "# HELP x h\n# TYPE x counter\nx one\n",
		"buckets decreasing": "# HELP x h\n# TYPE x histogram\nx_bucket{le=\"0.5\"} 1\nx_bucket{le=\"0.1\"} 2\nx_bucket{le=\"+Inf\"} 2\nx_sum 1\nx_count 2\n",
		"missing inf":        "# HELP x h\n# TYPE x histogram\nx_bucket{le=\"0.5\"} 1\nx_sum 1\nx_count 1\n",
		"count mismatch":     "# HELP x h\n# TYPE x histogram\nx_bucket{le=\"+Inf\"} 3\nx_sum 1\nx_count 2\n",
		"missing sum":        "# HELP x h\n# TYPE x histogram\nx_bucket{le=\"+Inf\"} 1\nx_count 1\n",
		"duplicate help":     "# HELP x h\n# HELP x h\n# TYPE x counter\nx 1\n",
		"declared but empty": "# HELP x h\n# TYPE x counter\n",
	}
	for name, doc := range cases {
		if err := LintProm(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted:\n%s", name, doc)
		}
	}
}

func TestPromEscapeLabel(t *testing.T) {
	in := "a\"b\\c\nd"
	want := `a\"b\\c\nd`
	if got := PromEscapeLabel(in); got != want {
		t.Fatalf("escape = %q, want %q", got, want)
	}
}

// TestLintExistingExpositions: the repository's live /metrics writers
// must satisfy the grammar the lint enforces.
func TestLintExistingExpositions(t *testing.T) {
	c := New(2)
	c.CountSend(0, 100)
	c.Begin(0, PhaseExchange, "x")
	c.End(0)
	c.Finish()
	var b strings.Builder
	if err := (Exporter{Collector: c}).WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if err := LintProm(strings.NewReader(b.String())); err != nil {
		t.Fatalf("obs exporter fails its own grammar: %v\n%s", err, b.String())
	}
}
