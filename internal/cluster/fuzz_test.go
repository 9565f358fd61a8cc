package cluster

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/serve"
)

// FuzzNodeResponse drives parseNodeBody and spliceResult, the
// coordinator's splice of a node's 200 body into its own.  For any node
// body the read must either fail (the 502 bad_node_response path) or
// the splice must return exactly the bytes the encoder path it replaced
// wrote: json.Encoder output of the ClusterResponse, which is valid
// JSON whose result is the node's, compacted and HTML-escaped.  A cache
// hit's answer, spliced from the same parsed result with a hit's
// routing fields, must equal the encoder's output for those fields too.
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
	// The exact body a node writes, which serve.ParseJobResponse reads
	// in one pass, and one seed for each class of body it hands to
	// json.Unmarshal instead.
	node := func(origin, result, trace string) []byte {
		return []byte(`{"origin":"` + origin + `","result":` + result + `,"trace":"` + trace + `"}` + "\n")
	}
	f.Add(append(res, '\n'), "n0")
	for _, body := range [][]byte{
		node(`ca\u0063he`, `1`, "00000000000000ff"),                       // escaped origin
		node("cach\u00e9", `1`, "00000000000000ff"),                       // non-ASCII origin
		node("cache", `["a\"b",2]`, "00000000000000ff"),                   // escape in a result string
		node("cache", "[\"caf\u00e9\"]", "00000000000000ff"),              // non-ASCII result string
		node("cache", "[\"\x7f\"]", "00000000000000ff"),                   // DEL in a result string
		node("cache", `{"a": [1, 2]}`, "00000000000000ff"),                // white space in the result
		node("cache", `[[[[[[[[[1]]]]]]]]]`, "00000000000000ff"),          // nesting past the bound
		node("cache", `[[[[[[[[1]]]]]]]]`, "00000000000000ff"),            // nesting at the bound
		node("cache", `{"a":"<&>"}`, "00000000000000ff"),                  // one pass, not in encoder form
		[]byte(`{"ORIGIN":"cache","result":1,"trace":"ff"}` + "\n"),       // a key in another case
		[]byte(`{"result":1,"origin":"cache","trace":"ff"}` + "\n"),       // keys in another order
		[]byte(`{"origin":"cache","result":1}` + "\n"),                    // a missing member
		[]byte(`{"origin":"cache","result":1,"trace":"ff","x":2}` + "\n"), // an extra member
		append(node("cache", `1`, "ff"), '\n'),                            // trailing white space
		append(node("cache", `1`, "ff"), 'x'),                             // trailing bytes
		node("cache", `-01`, "ff"),                                        // a bad number
		node("cache", `1.5e+3`, "ff"),                                     // a good number
	} {
		f.Add(body, "n1")
	}
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
		origin, result, err := parseNodeBody(nodeBody)
		var got []byte
		if err == nil {
			meta.Origin = origin
			got, err = spliceResult(meta, result)
		}
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

		// The hit a coordinator answers later from the stored result.
		hitMeta := ClusterResponse{Origin: "cache", Node: name, Primary: "n0", Trace: "0000000000000002"}
		hit, err := spliceResult(hitMeta, result)
		if err != nil {
			t.Fatalf("hit splice of %q: %v", result, err)
		}
		hitMeta.Result = node.Result
		enc.Reset()
		if err := json.NewEncoder(&enc).Encode(hitMeta); err != nil {
			t.Fatalf("encode %+v: %v", hitMeta, err)
		}
		if !bytes.Equal(hit, enc.Bytes()) {
			t.Fatalf("node body %q, hit:\n got %s\nwant %s", nodeBody, hit, enc.Bytes())
		}
	})
}
