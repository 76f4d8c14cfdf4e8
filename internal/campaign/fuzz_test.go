package campaign

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/sweep"
)

// FuzzSpecNormalize decodes arbitrary JSON as a sweep spec, as
// llcsweep -spec does. Whatever decodes must normalize idempotently,
// and Fingerprint — the identity every checkpoint log is bound to —
// must agree on the spec, its normalized form and the JSON round trip
// of each, so the spec an artifact embeds resumes its own log.
func FuzzSpecNormalize(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec sweep.Spec
		if json.Unmarshal(data, &spec) != nil {
			return
		}
		norm := spec
		norm.Normalize()
		again := clone(t, norm) // a deep copy: Normalize must not touch norm
		again.Normalize()
		if !reflect.DeepEqual(again, norm) {
			t.Fatalf("Normalize is not idempotent:\n%+v\nthen\n%+v", norm, again)
		}
		fp := Fingerprint(spec)
		for name, s := range map[string]sweep.Spec{
			"normalized":            norm,
			"round-tripped":         clone(t, spec),
			"normalized round trip": clone(t, norm),
		} {
			if got := Fingerprint(s); got != fp {
				t.Fatalf("%s spec fingerprints %016x, want %016x", name, got, fp)
			}
		}
	})
}

// clone returns the spec's JSON round trip, a deep copy.
func clone(t *testing.T, s sweep.Spec) sweep.Spec {
	t.Helper()
	js, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var out sweep.Spec
	if err := json.Unmarshal(js, &out); err != nil {
		t.Fatalf("decoding %s: %v", js, err)
	}
	return out
}
