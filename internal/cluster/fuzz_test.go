package cluster

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/serve"
)

// FuzzNodeResponse drives clusterBody, the coordinator's splice of a
// node's 200 body into its own.  For any node body it must either fail
// (the 502 bad_node_response path) or return exactly the bytes the
// encoder path it replaced wrote: json.Encoder output of the
// ClusterResponse, which is valid JSON whose result is the node's,
// compacted and HTML-escaped.
func FuzzNodeResponse(f *testing.F) {
	res, err := json.Marshal(serve.JobResponse{
		Origin: "cache",
		Result: &serve.JobResult{
			Fingerprint:  "0123456789abcdef",
			P:            2,
			Probe:        []float64{0, 1.5e-300, -2.25, 1e21},
			FieldHash:    "fedcba9876543210",
			Work:         4096,
			WallSeconds:  0.001,
			PhaseSeconds: map[string]float64{"compute": 0.5, "exchange": 0.25},
		},
		Trace: "00000000000000ff",
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(res, "n0")
	// Each of these seeds holds one reason not to splice the result as
	// is: a white space byte, or one that HTML escaping rewrites.
	for _, ws := range []string{" ", "\t", "\n", "\r"} {
		f.Add([]byte(`{"origin":"cache","result":[1,`+ws+`2]}`), "n1")
	}
	for _, esc := range []string{"<", ">", "&", "\u2028", "\u2029"} {
		f.Add([]byte(`{"origin":"cache","result":["a`+esc+`b"]}`), "n1")
	}
	f.Add([]byte("{\"origin\":\"\xff\",\"result\":\"x y\"}"), "n<1>")
	f.Add([]byte(`{"origin":"computed"}`), "n1")
	f.Add([]byte(`{"origin":"computed","result":null}`), "n1")
	f.Add([]byte(`{"ORIGIN":"x","Result":3,"result":4}`), "n1")
	f.Add([]byte(`null`), "n2")
	f.Add([]byte(`[]`), "n2")
	f.Add([]byte(`{"origin":"cache","result":`), "n2")

	f.Fuzz(func(t *testing.T, nodeBody []byte, name string) {
		meta := ClusterResponse{Node: name, Primary: "n0", Degraded: name != "n0", Attempts: 2, Failovers: 1, Trace: "0000000000000001"}
		got, err := clusterBody(nodeBody, meta)
		var node struct {
			Origin string          `json:"origin"`
			Result json.RawMessage `json:"result"`
		}
		if uerr := json.Unmarshal(nodeBody, &node); uerr != nil {
			if err == nil {
				t.Fatalf("node body %q does not decode (%v), yet clusterBody accepted it", nodeBody, uerr)
			}
			return
		}
		if err != nil {
			t.Fatalf("node body %q decodes, yet clusterBody failed: %v", nodeBody, err)
		}

		want := meta
		want.Origin, want.Result = node.Origin, node.Result
		var enc bytes.Buffer
		if err := json.NewEncoder(&enc).Encode(want); err != nil {
			t.Fatalf("encode %+v: %v", want, err)
		}
		if !bytes.Equal(got, enc.Bytes()) {
			t.Fatalf("node body %q:\n got %s\nwant %s", nodeBody, got, enc.Bytes())
		}

		if !json.Valid(got) {
			t.Fatalf("invalid JSON %q", got)
		}
		var back ClusterResponse
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatalf("decode %q: %v", got, err)
		}
		compacted := []byte("null")
		if node.Result != nil {
			var c, e bytes.Buffer
			if err := json.Compact(&c, node.Result); err != nil {
				t.Fatalf("compact %q: %v", node.Result, err)
			}
			json.HTMLEscape(&e, c.Bytes())
			compacted = e.Bytes()
		}
		if !bytes.Equal(back.Result, compacted) {
			t.Fatalf("result %q, want the node's compacted %q", back.Result, compacted)
		}
	})
}
