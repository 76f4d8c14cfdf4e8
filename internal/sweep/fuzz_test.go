package sweep_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/campaign"
	"repro/internal/sweep"
)

// FuzzDecodeSpec feeds arbitrary bytes to DecodeSpec, the reader of the
// daemon's submits and of every spec file. It must not panic. A spec it
// accepts must decode the same under json.Unmarshal, and its
// re-encoding must decode again to a spec with the same
// campaign.Fingerprint, the identity a checkpoint log is bound to.
func FuzzDecodeSpec(f *testing.F) {
	const valid = `{"experiments": ["evset/bins"], "trials": 3}`
	for _, s := range []string{
		valid,
		valid + "\n",
		valid + "]",
		valid + `{"trials": -1}`,
		valid + "garbage",
		"{not json",
		`{"unknown_field": 1}`,
		`{"experiments": ["no/such/experiment"], "trials": 3}`,
		`{"trials": -1}`,
		`{"experiments": ["evset/bins", "probe/parallel"], "policies": ["LRU", "QLRU"], "trials": 5, "seed": 7}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := sweep.DecodeSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		var plain sweep.Spec
		if err := json.Unmarshal(data, &plain); err != nil {
			t.Fatalf("DecodeSpec accepted what json.Unmarshal rejects: %v", err)
		}
		if !reflect.DeepEqual(plain, spec) {
			t.Fatalf("DecodeSpec read %+v, json.Unmarshal %+v", spec, plain)
		}
		js, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("encoding %+v: %v", spec, err)
		}
		again, err := sweep.DecodeSpec(bytes.NewReader(js))
		if err != nil {
			t.Fatalf("DecodeSpec rejects its spec re-encoded as %s: %v", js, err)
		}
		if got, want := campaign.Fingerprint(again), campaign.Fingerprint(spec); got != want {
			t.Fatalf("re-encoded spec %s fingerprints %016x, want %016x", js, got, want)
		}
	})
}
