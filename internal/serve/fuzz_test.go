package serve

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/fdtd"
)

// FuzzJobRequest drives the job-request path a POST /v1/jobs body
// takes before admission: decode, resolve, validate for P = 2.  It
// must never panic, and a spec it accepts must keep its fingerprint
// across a JSON round trip, since that fingerprint keys the cache and
// the cluster's shard.
func FuzzJobRequest(f *testing.F) {
	huge := fdtd.SpecSmall()
	huge.NX, huge.NY, huge.NZ = 1<<21, 1<<21, 1<<21
	small := fdtd.SpecSmallA()
	for _, req := range []JobRequest{
		{Spec: &huge},
		{Spec: &small, TimeoutMS: 50, NoCache: true},
		{Preset: "small"},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"preset":"small"}xyz`))
	f.Add([]byte(`{"preset":"small","spec":{"NX":8}}`))
	f.Add([]byte(`{"preset":"figure2","bogus":1}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := DecodeJobRequest(bytes.NewReader(body))
		if err != nil {
			return
		}
		spec, _, err := ResolveRequest(req)
		if err != nil || fdtd.ValidateForP(spec, 2) != nil {
			return
		}
		again, err := json.Marshal(JobRequest{Spec: &spec})
		if err != nil {
			t.Fatalf("encode accepted spec: %v", err)
		}
		back, err := DecodeJobRequest(bytes.NewReader(again))
		if err != nil {
			t.Fatalf("decode re-encoded spec %s: %v", again, err)
		}
		if got, want := back.Spec.Fingerprint(), spec.Fingerprint(); got != want {
			t.Fatalf("fingerprint %016x became %016x across JSON: %s", want, got, again)
		}
	})
}
