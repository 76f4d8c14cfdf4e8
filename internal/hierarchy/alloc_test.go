package hierarchy

import (
	"testing"

	"repro/internal/defense"
	"repro/internal/memory"
)

// TestRecycledAccessAllocs pins the steady-state allocation count of the
// simulation hot path at zero: once a host has been built and recycled
// with Reset (the host-pool trial contract), a demand access or an
// overlapped batch must not touch the heap — not through the flat cache
// arrays, not through the event queue, not through the lazy
// background-tenant sync, not through any defense hook, and not through
// the batch-max jitter scratch buffer, which keeps its capacity across
// Reset, and not through the quiet-batch memo of a repeated 8-line
// probe, whose address buffer is reused. A drift here is what the benchmark gate in CI catches only
// indirectly; this test names the culprit directly.
func TestRecycledAccessAllocs(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"quiet", quietScaled()},
		{"cloud-noise", Scaled(4).WithCloudNoise()},
		{"defended-randomize", Scaled(4).WithCloudNoise().WithDefense(defense.Spec{Model: "randomize", Period: 5000})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := NewHost(tc.cfg, 15)
			a := h.NewAgent(0)
			buf := a.Alloc(64)
			// 767 lines: the largest overlapped batch the attack issues.
			addrs := make([]memory.VAddr, 767)
			for i := range addrs {
				addrs[i] = buf.LineAt(i%64, uint64(i/64)*memory.LineSize)
			}
			single := addrs[:256]
			// Dirty the host, then recycle it: the contract under test
			// is the per-access cost of a *reused* trial host.
			for _, va := range single {
				a.Access(va)
			}
			a.AccessParallel(addrs)
			grown := cap(h.jit)
			h.Reset(99)
			probe := congruentLines(t, a, 8)
			for i := 0; i < 3; i++ {
				a.AccessParallel(probe) // fill, then memoize
			}
			if cap(h.jit) != grown || len(h.jit) != 0 {
				t.Fatalf("Reset left the jitter buffer at len %d cap %d, want 0 and %d", len(h.jit), cap(h.jit), grown)
			}
			i := 0
			var quiet quietTally
			ops := []struct {
				name string
				runs int
				op   func()
			}{
				{"Access", 2000, func() {
					a.Access(single[i%len(single)])
					i++
				}},
				{"AccessParallel/8", 2000, func() {
					j := 8 * (i % (len(single) / 8))
					a.AccessParallel(single[j : j+8])
					i++
				}},
				{"AccessParallel/767", 100, func() { a.AccessParallel(addrs) }},
				{"AccessParallel/8-repeated", 2000, func() { quiet.batch(a, probe) }},
			}
			for _, o := range ops {
				if avg := testing.AllocsPerRun(o.runs, o.op); avg != 0 {
					t.Fatalf("%s: %v allocs per recycled-trial %s, want 0", tc.name, avg, o.name)
				}
			}
			if cap(h.jit) != grown {
				t.Fatalf("jitter buffer regrown from cap %d to %d", grown, cap(h.jit))
			}
			if h.quietHost && quiet.commits == 0 {
				t.Fatalf("%s: the repeated probe never took the quiet-batch kernel", tc.name)
			}
		})
	}
}
