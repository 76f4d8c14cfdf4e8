package campaign

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"repro/internal/experiments"
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

// FuzzDecodeSamples feeds arbitrary checkpoint payloads and trial
// counts to DecodeSamples. It must not panic, and a payload it accepts
// must re-encode to the same bytes, so a cell restored from a
// checkpoint is the cell that was stored.
func FuzzDecodeSamples(f *testing.F) {
	good := EncodeSamples([]experiments.Sample{
		{OK: true, Value: 1234.5},
		{OK: false, Value: 0},
		{OK: true, Value: math.Inf(1)},
		{OK: true, Value: math.Copysign(0, -1)},
	})
	bad := bytes.Clone(good)
	bad[0] = 7
	f.Add(good, 4)
	f.Add(good, 3)
	f.Add([]byte{1, 2, 3}, 4)
	f.Add(bad, 4)
	f.Add([]byte{}, 0)
	f.Add([]byte{}, -1)
	// A trial count whose payload size overflows int: sampleSize*n
	// wraps to a small length, which the decoder once accepted and then
	// panicked allocating n samples.
	n := int(^uint(0)/sampleSize) + 1
	f.Add(make([]byte, sampleSize*n), n)
	f.Fuzz(func(t *testing.T, payload []byte, n int) {
		out, err := DecodeSamples(payload, n)
		if err != nil {
			return
		}
		if len(out) != n {
			t.Fatalf("decoded %d samples, want %d", len(out), n)
		}
		if got := EncodeSamples(out); !bytes.Equal(got, payload) {
			t.Fatalf("payload %x re-encodes as %x", payload, got)
		}
	})
}
