package hierarchy

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/clock"
	"repro/internal/defense"
	"repro/internal/memory"
	"repro/internal/tenant"
	"repro/internal/xrand"
)

// Oracle configurations: a tiny geometry so every structure overflows
// within a few operations, crossed with the replacement policies, the
// four defense families, several background workloads and jitter
// widths. Cores 0-1 are the attacker domain, 2-3 the victim's.
var (
	oracleSlices   = []int{2, 3, 4, 28}
	oracleDefenses = []*defense.Spec{
		nil,
		{Model: "partition", Ways: 2},
		{Model: "randomize", Period: 7},
		{Model: "scatter"},
		{Model: "quiesce", Quantum: 16, Jitter: 3},
	}
	oracleTenants = [][]tenant.Spec{
		nil,
		{{Model: "poisson", Rate: CloudRunNoiseRate, LLCProb: 0.5}},
		{{Model: "poisson", Rate: 400, LLCProb: 0.5}},
		{{Model: "poisson", Rate: 4000, LLCProb: 0.2}}, // means above 64 on long idles
		{{Model: "burst", Rate: 300, LLCProb: 0.5, OnFrac: 0.5, OnMs: 0.001}, {Model: "poisson", Rate: 50, LLCProb: 1}},
		{{Model: "poisson", Rate: 30, LLCProb: 0.5}, {Model: "poisson", Rate: 300, LLCProb: 1}}, // two memoryless draws per sync
	}
	oracleJitter = []float64{0.06, 0, 0.5}
)

// oracleConfig decodes three selector bytes into a host config and seed;
// odd seeds get a 2-set 8-way L1 instead of the 4-set 2-way one.
func oracleConfig(b0, b1, b2 byte) (Config, uint64) {
	pol := cache.Policies()[int(b0)%5]
	c := Config{
		Name:   "oracle",
		Cores:  4,
		L1Sets: 4, L1Ways: 2,
		L2Sets: 8, L2Ways: 4,
		LLCSets: 4, LLCWays: 3,
		SFWays:          4,
		Slices:          oracleSlices[int(b1)%len(oracleSlices)],
		L2Policy:        pol,
		LLCPolicy:       pol,
		SFPolicy:        pol,
		Lat:             DefaultLatencies(),
		ReuseInsertProb: 0.3,
		Tenants:         oracleTenants[int(b1)/len(oracleSlices)%len(oracleTenants)],
		Defense:         oracleDefenses[int(b0)/5%len(oracleDefenses)],
		MemoryBytes:     1 << 20,
		TimerJitter:     2,
	}
	c.Lat.JitterFrac = oracleJitter[int(b2)%len(oracleJitter)]
	seed := uint64(b2) / 3
	if seed%2 == 1 {
		// An 8-way L1, as shipped, with sets the universe overflows.
		c.L1Sets, c.L1Ways = 2, 8
	}
	return c, seed
}

// oraclePair is one Host and its refHost, plus the address universe the
// operations draw from: a few pages' worth of lines in one address
// space that all four agents share, so any core can touch any line.
type oraclePair struct {
	h      *Host
	r      *refHost
	agents []*Agent
	vas    []memory.VAddr
	pas    []memory.PAddr
	// congruent is the largest group of universe lines (at most 8) in
	// one LLC/SF set under the base mapping: the probe loop's lines.
	congruent []int
	// Completion logs of scheduled events, one per host.
	hDone, rDone []clock.Cycles
	// quiet tallies the quiet-batch kernel's outcomes over the host's
	// AccessParallel batches.
	quiet quietTally
}

func newOraclePair(cfg Config, seed uint64) *oraclePair {
	p := &oraclePair{h: NewHost(cfg, seed), r: newRefHost(cfg, seed)}
	p.agents = []*Agent{p.h.NewAgent(0)}
	for c := 1; c < cfg.Cores; c++ {
		p.agents = append(p.agents, p.h.NewAgentSharing(c, p.agents[0].AddressSpace()))
	}
	buf := p.agents[0].Alloc(4)
	for page := 0; page < 4; page++ {
		for _, line := range []uint64{0, 1, 2, 3, 5, 9, 17, 33} {
			va := buf.LineAt(page, line*memory.LineSize)
			p.vas = append(p.vas, va)
			p.pas = append(p.pas, p.agents[0].Translate(va))
		}
	}
	groups := map[SetID][]int{}
	for i, pa := range p.pas {
		set := p.h.SetOf(pa)
		groups[set] = append(groups[set], i)
		if g := groups[set]; len(g) > len(p.congruent) && len(g) <= 8 {
			p.congruent = g
		}
	}
	return p
}

// batch picks n universe lines from index a with a fixed stride.
func (p *oraclePair) batch(a, n, stride int) ([]memory.VAddr, []memory.PAddr) {
	vas := make([]memory.VAddr, n)
	pas := make([]memory.PAddr, n)
	for i := range vas {
		j := (a + i*stride) % len(p.vas)
		vas[i], pas[i] = p.vas[j], p.pas[j]
	}
	return vas, pas
}

// step applies one four-byte operation to both hosts, fails on any
// difference in its results, then compares the hosts' whole state.
func (p *oraclePair) step(t *testing.T, op, x, y, z byte) {
	core := int(x) % len(p.agents)
	a := int(y) % len(p.vas)
	ag := p.agents[core]
	n := 1 + int(z)%12
	stride := 1 + int(x>>2)%5
	var name string
	switch op % 11 {
	case 0, 1:
		name = "Access"
		hc, hl := ag.Access(p.vas[a])
		rc, rl := p.r.Access(core, p.pas[a])
		if hc != rc || hl != rl {
			t.Fatalf("Access(core %d, line %d) = (%d, %v) host vs (%d, %v) model", core, a, hc, hl, rc, rl)
		}
	case 2, 9:
		name = "AccessParallel"
		if op%11 == 9 {
			n, stride = 8, 1 // the monitor's probe shape
		}
		vas, pas := p.batch(a, n, stride)
		hc, hm := p.quiet.batch(ag, vas)
		rc, rm := p.r.AccessParallel(core, pas)
		if hc != rc || hm != rm {
			t.Fatalf("AccessParallel(core %d, %d lines from %d) = (%d, %d) host vs (%d, %d) model", core, n, a, hc, hm, rc, rm)
		}
	case 3:
		name = "LoadSharedAll"
		main := core &^ 1
		vas, pas := p.batch(a, n, stride)
		hc := p.agents[main].LoadSharedAll(p.agents[main+1], vas)
		if rc := p.r.LoadSharedAll(main, main+1, pas); hc != rc {
			t.Fatalf("LoadSharedAll(core %d, %d lines from %d) = %d host vs %d model", main, n, a, hc, rc)
		}
	case 4:
		name = "Flush"
		if hc, rc := ag.Flush(p.vas[a]), p.r.Flush(core, p.pas[a]); hc != rc {
			t.Fatalf("Flush = %d host vs %d model", hc, rc)
		}
	case 5:
		name = "Idle"
		d := clock.Cycles(z) << (int(x>>2) % 11)
		ag.Idle(d)
		p.r.Idle(d)
	case 6:
		name = "Schedule"
		at := p.h.clk.Now() + clock.Cycles(z)*8
		if x&0x80 != 0 && p.h.clk.Now() > clock.Cycles(z) {
			at = p.h.clk.Now() - clock.Cycles(z) // already due
		}
		e := Event{Time: at, Core: core, PA: p.pas[a], Refetch: x&4 != 0}
		he, re := e, e
		he.Done = func(t clock.Cycles) { p.hDone = append(p.hDone, t) }
		re.Done = func(t clock.Cycles) { p.rDone = append(p.rDone, t) }
		p.h.Schedule(he)
		p.r.Schedule(re)
	case 7:
		name = "TimedAccess"
		hc, hl := ag.TimedAccess(p.vas[a])
		rc, rl := p.r.TimedAccess(core, p.pas[a])
		if hc != rc || hl != rl {
			t.Fatalf("TimedAccess(core %d, line %d) = (%d, %v) host vs (%d, %v) model", core, a, hc, hl, rc, rl)
		}
	case 8:
		name = "AccessSeq"
		vas, pas := p.batch(a, n%4+1, stride)
		if hc, rc := ag.AccessSeq(vas), p.r.AccessSeq(core, pas); hc != rc {
			t.Fatalf("AccessSeq = %d host vs %d model", hc, rc)
		}
	case 10:
		// The monitor's loop, which the quiet-batch kernel replays: one
		// batch over the first m congruent lines, repeated k times on
		// one core, the whole state compared after every repeat.
		name = "ProbeLoop"
		m := 1 + int(y)%len(p.congruent)
		vas := make([]memory.VAddr, n%8+1)
		pas := make([]memory.PAddr, len(vas))
		for i := range vas {
			j := p.congruent[i%m]
			vas[i], pas[i] = p.vas[j], p.pas[j]
		}
		for k := 3 + int(x>>2)%6; k > 0; k-- {
			hc, hm := p.quiet.batch(ag, vas)
			rc, rm := p.r.AccessParallel(core, pas)
			if hc != rc || hm != rm {
				t.Fatalf("ProbeLoop(core %d, %d lines over %d) = (%d, %d) host vs (%d, %d) model", core, len(vas), m, hc, hm, rc, rm)
			}
			p.compare(t, name)
		}
	}
	p.compare(t, name)
	checkInvariants(t, p.h, p.pas, name)
}

// compare fails on any difference in the hosts' observable state: the
// clock, the counters, the event queue, the next host rng draw, and
// every cache set the address universe maps to: tags in way order with
// the SF's owners and, under true LRU (every L1), the recency order.
func (p *oraclePair) compare(t *testing.T, after string) {
	h, r := p.h, p.r
	if h.clk.Now() != r.now || h.Accesses != r.Accesses || h.NoiseEvents != r.NoiseEvents || h.noiseSeq != r.noiseSeq {
		t.Fatalf("after %s: clock/accesses/noise events/noise seq %d/%d/%d/%d host vs %d/%d/%d/%d model",
			after, h.clk.Now(), h.Accesses, h.NoiseEvents, h.noiseSeq, r.now, r.Accesses, r.NoiseEvents, r.noiseSeq)
	}
	if h.ScheduledLen() != len(r.sched) || !slices.Equal(p.hDone, p.rDone) {
		t.Fatalf("after %s: queue %d, done %v host vs queue %d, done %v model", after, h.ScheduledLen(), p.hDone, len(r.sched), p.rDone)
	}
	if hn, rn := peekUint64(h.rng), peekUint64(r.rng); hn != rn {
		t.Fatalf("after %s: next rng draw %#x host vs %#x model", after, hn, rn)
	}
	for i, pa := range p.pas {
		tag := cache.Tag(pa.Line())
		for c := range h.cores {
			sameSet(t, after, func() string { return fmt.Sprintf("L1[%d] line %d", c, i) }, h.cores[c].l1, r.l1[c], h.l1Index(pa), r.l1Index(pa))
			sameSet(t, after, func() string { return fmt.Sprintf("L2[%d] line %d", c, i) }, h.cores[c].l2, r.l2[c], h.l2Index(pa), r.l2Index(pa))
		}
		for _, d := range []defense.Domain{defense.DomainAttacker, defense.DomainVictim} {
			hs, rs := h.setFor(d, pa), r.setFor(d, pa)
			if hs != rs {
				t.Fatalf("after %s: line %d resolves to set %v host vs %v model for the %v domain", after, i, hs, rs, d)
			}
			sameSet(t, after, func() string { return fmt.Sprintf("LLC %v line %d", hs, i) }, h.llc[hs.Slice], r.llc[rs.Slice], hs.Index, rs.Index)
			sameSet(t, after, func() string { return fmt.Sprintf("SF %v line %d", hs, i) }, h.sf[hs.Slice], r.sf[rs.Slice], hs.Index, rs.Index)
			ho, hok := h.sf[hs.Slice].Peek(hs.Index, tag)
			if ro, rok := r.sf[rs.Slice].Peek(rs.Index, tag); ho != ro || hok != rok {
				t.Fatalf("after %s: line %d SF owner (%d, %v) host vs (%d, %v) model", after, i, ho, hok, ro, rok)
			}
		}
	}
}

// peekSet is the part of both cache implementations compare reads.
type peekSet interface {
	TagsIn(idx int) []cache.Tag
	Peek(idx int, tag cache.Tag) (uint16, bool)
	Recency(idx int) []uint8
}

func sameSet(t *testing.T, after string, what func() string, h, r peekSet, hi, ri int) {
	if ho, ro := h.Recency(hi), r.Recency(ri); !slices.Equal(ho, ro) {
		t.Fatalf("after %s: %s has recency order %v host vs %v model", after, what(), ho, ro)
	}
	ht, rt := h.TagsIn(hi), r.TagsIn(ri)
	same := len(ht) == len(rt)
	for i := 0; same && i < len(ht); i++ {
		hp, _ := h.Peek(hi, ht[i])
		rp, _ := r.Peek(ri, rt[i])
		same = ht[i] == rt[i] && hp == rp
	}
	if !same {
		t.Fatalf("after %s: %s holds %v host vs %v model (or their payloads differ)", after, what(), ht, rt)
	}
}

// peekUint64 returns the generator's next output without advancing it.
func peekUint64(r *xrand.Rand) uint64 {
	c := *r
	return c.Uint64()
}

// FuzzHostMatchesModel drives a Host and the reference refHost through
// the same fuzzer-chosen configuration and operation script — accesses,
// timed and dependent accesses, overlapped batches, probe loops, shared
// loads, flushes, idle spans and scheduled victim events — and requires
// op-for-op agreement on every result and on the whole observable state
// (see compare). Bytes 0-2 select policy, defense, slice count,
// background tenants, jitter and seed; each further four bytes are one
// operation. The committed corpus under testdata/fuzz runs on every
// plain `go test`.
func FuzzHostMatchesModel(f *testing.F) {
	script := []byte{
		0, 0, 1, 0, 2, 1, 2, 7, 9, 0, 0, 0, 6, 2, 3, 4, 5, 9, 0, 200,
		3, 0, 4, 5, 0, 3, 1, 0, 9, 1, 8, 0, 4, 0, 1, 0, 7, 2, 3, 0,
		6, 0x86, 5, 3, 5, 40, 0, 255, 2, 3, 6, 11, 8, 1, 2, 3, 0, 2, 12, 0,
		10, 0x14, 1, 7, 6, 0, 0, 30, 10, 0x10, 3, 7, 10, 0x1c, 0, 3,
	}
	for sel := byte(0); sel < 25; sel++ {
		f.Add(append([]byte{sel, sel * 3, sel % 3}, script...))
	}
	f.Fuzz(func(t *testing.T, data []byte) { runOracleScript(t, data) })
}

// runOracleScript runs one FuzzHostMatchesModel input and returns the
// pair in its final state (nil for an input too short to configure).
func runOracleScript(t *testing.T, data []byte) *oraclePair {
	if len(data) < 3 {
		return nil
	}
	cfg, seed := oracleConfig(data[0], data[1], data[2])
	p := newOraclePair(cfg, seed)
	p.compare(t, "NewHost")
	ops := data[3:]
	for i := 0; i+3 < len(ops) && i < 4*512; i += 4 {
		p.step(t, ops[i], ops[i+1], ops[i+2], ops[i+3])
	}
	return p
}

// TestHostMatchesModel is the deterministic face of the hierarchy
// oracle: long pseudo-random scripts over every policy × defense
// pairing, each with its own slice count, background and jitter, on
// the tiny oracle geometry and on the Scaled one.
func TestHostMatchesModel(t *testing.T) {
	for sel := 0; sel < 25; sel++ {
		cfg, seed := oracleConfig(byte(sel), byte(sel*7+1), byte(sel))
		if sel%5 == 4 {
			scaled := Scaled(4)
			scaled.Tenants, scaled.Defense, scaled.LLCPolicy, scaled.SFPolicy = cfg.Tenants, cfg.Defense, cfg.LLCPolicy, cfg.SFPolicy
			scaled.MemoryBytes = 1 << 22
			cfg = scaled
		}
		p := newOraclePair(cfg, seed)
		ops := xrand.New(uint64(sel) + 100)
		for i := 0; i < 1500; i++ {
			v := ops.Uint64()
			p.step(t, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		}
	}
}
