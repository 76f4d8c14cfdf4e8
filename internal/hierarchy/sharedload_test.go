package hierarchy

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/clock"
	"repro/internal/defense"
	"repro/internal/memory"
	"repro/internal/xrand"
)

// unfusedLoadSharedAll is LoadSharedAll with every line as the three
// calls sharedLoad stands for: the main thread's drop, its access, then
// the helper's access. Before each line it tallies the branch the fused
// step takes from the same state (sharedBranch).
func unfusedLoadSharedAll(a, helper *Agent, vas []memory.VAddr, tally map[string]int) clock.Cycles {
	h := a.h
	lat := &h.cfg.Lat
	total := 0.0
	mark := len(h.jit)
	for i, va := range vas {
		pa := a.as.Translate(va)
		held := h.hasPrivate(a.core, pa)
		h.dropPrivate(a.core, pa)
		for _, b := range sharedBranch(h, a.core, pa, held) {
			tally[b]++
		}
		level := h.accessState(a.core, pa).level
		h.accessState(helper.core, pa)
		h.drawJitter(level)
		step := lat.Issue * 2
		if i > 0 {
			step += lat.Drain[level]
		}
		total += step
		h.clk.Advance(clock.Cycles(step))
	}
	maxC, totalC := h.batchFloors(mark, total)
	h.clk.Advance(maxC)
	return totalC
}

// sharedBranch names the branches of sharedLoad that one line takes,
// read from the host's state after main's drop: held says whether the
// drop removed a private copy. It syncs the line's set as main's access
// is about to, so that access's own sync is a no-op and the sequence is
// unchanged.
func sharedBranch(h *Host, main int, pa memory.PAddr, held bool) []string {
	if h.defHooks.Index || h.defHooks.Tick {
		return []string{"fallback on " + h.cfg.Defense.Model}
	}
	set := h.setFor(domainOf(main), pa)
	h.syncNoise(set)
	if now := h.clk.Now(); h.sched.due(now) {
		for _, e := range h.sched.events {
			if e.Time <= now && e.Core == main {
				return []string{"event due on the main core"}
			}
		}
		return []string{"event due on another core"}
	}
	var out []string
	if h.defSplit != 0 {
		out = append(out, "partition defense")
	}
	if held {
		out = append(out, "drop removes main's copy")
	}
	tag := cache.Tag(pa.Line())
	owner, inSF := h.sf[set.Slice].Peek(set.Index, tag)
	dir, inLLC := h.llc[set.Slice].Peek(set.Index, tag)
	switch {
	case inSF && int(owner) != main && owner != noiseOwner && h.hasPrivate(int(owner), pa):
		if int(owner) >= attackerCores {
			return append(out, "SF forward from a victim core")
		}
		return append(out, "SF forward from the helper")
	case inSF && int(owner) == main:
		return append(out, "own SF entry")
	case inSF:
		return append(out, "stale SF entry of another core")
	case inLLC && (dir&0xff == uint16(main+1) || dir>>8 == uint16(main+1)):
		return append(out, "LLC hit with main as sharer")
	case inLLC:
		return append(out, "LLC hit")
	}
	return append(out, "full miss")
}

// twinHost is one host with the agents and address universe of a
// shared-load script: main (core 0) and its helper (core 1), and a
// victim (core 2), all in one address space so the victim can own the
// lines the attacker traverses.
type twinHost struct {
	h      *Host
	agents []*Agent
	vas    []memory.VAddr
	pas    []memory.PAddr
	done   []clock.Cycles
}

func newTwinHost(cfg Config, seed uint64) *twinHost {
	w := &twinHost{h: NewHost(cfg, seed)}
	w.agents = []*Agent{w.h.NewAgent(0)}
	for c := 1; c < 3; c++ {
		w.agents = append(w.agents, w.h.NewAgentSharing(c, w.agents[0].AddressSpace()))
	}
	buf := w.agents[0].Alloc(4)
	for page := 0; page < 4; page++ {
		for _, line := range []uint64{0, 1, 2, 3, 5, 9, 17, 33} {
			va := buf.LineAt(page, line*memory.LineSize)
			w.vas = append(w.vas, va)
			w.pas = append(w.pas, w.agents[0].Translate(va))
		}
	}
	return w
}

// sameHosts fails on any difference between the twins: clock, counters,
// event queue and completions, next rng draw, every cache's Version,
// and every cache set of the address universe under both container
// mappings, with payloads and true-LRU recency orders.
func sameHosts(t *testing.T, after string, f, u *twinHost) {
	t.Helper()
	a, b := f.h, u.h
	if a.clk.Now() != b.clk.Now() || a.Accesses != b.Accesses || a.NoiseEvents != b.NoiseEvents || a.noiseSeq != b.noiseSeq {
		t.Fatalf("after %s: clock/accesses/noise events/noise seq %d/%d/%d/%d fused vs %d/%d/%d/%d unfused",
			after, a.clk.Now(), a.Accesses, a.NoiseEvents, a.noiseSeq, b.clk.Now(), b.Accesses, b.NoiseEvents, b.noiseSeq)
	}
	if a.ScheduledLen() != b.ScheduledLen() || !slices.Equal(f.done, u.done) {
		t.Fatalf("after %s: queue %d, done %v fused vs queue %d, done %v unfused", after, a.ScheduledLen(), f.done, b.ScheduledLen(), u.done)
	}
	if an, bn := peekUint64(a.rng), peekUint64(b.rng); an != bn {
		t.Fatalf("after %s: next rng draw %#x fused vs %#x unfused", after, an, bn)
	}
	version := func(name string, x, y *cache.Cache) {
		if x.Version() != y.Version() {
			t.Fatalf("after %s: %s Version %d fused vs %d unfused", after, name, x.Version(), y.Version())
		}
	}
	for c := range a.cores {
		version(a.cores[c].l1.Name(), a.cores[c].l1, b.cores[c].l1)
		version(a.cores[c].l2.Name(), a.cores[c].l2, b.cores[c].l2)
	}
	for s := range a.llc {
		version(a.llc[s].Name(), a.llc[s], b.llc[s])
		version(a.sf[s].Name(), a.sf[s], b.sf[s])
	}
	for i, pa := range f.pas {
		for c := range a.cores {
			sameSet(t, after, func() string { return fmt.Sprintf("L1[%d] line %d", c, i) }, a.cores[c].l1, b.cores[c].l1, a.l1Index(pa), b.l1Index(pa))
			sameSet(t, after, func() string { return fmt.Sprintf("L2[%d] line %d", c, i) }, a.cores[c].l2, b.cores[c].l2, a.l2Index(pa), b.l2Index(pa))
		}
		for _, d := range []defense.Domain{defense.DomainAttacker, defense.DomainVictim} {
			s := a.setFor(d, pa)
			sameSet(t, after, func() string { return fmt.Sprintf("LLC %v line %d", s, i) }, a.llc[s.Slice], b.llc[s.Slice], s.Index, s.Index)
			sameSet(t, after, func() string { return fmt.Sprintf("SF %v line %d", s, i) }, a.sf[s.Slice], b.sf[s.Slice], s.Index, s.Index)
		}
	}
}

// TestSharedLoadMatchesGeneralPath runs twin hosts through one script:
// the first traverses with LoadSharedAll (one fused sharedLoad per
// line), the second with unfusedLoadSharedAll. Between traversals the
// script lets main and the victim take lines Exclusive, schedules
// victim and main-core events to fall due mid-traversal, flushes and
// idles. The twins must agree on every traversal's time and, after
// every operation, on their whole state (sameHosts). The scripts run
// on the oracle geometry over every policy and defense, under noise,
// and must take every branch of the fused step.
func TestSharedLoadMatchesGeneralPath(t *testing.T) {
	tally := map[string]int{}
	for sel := 0; sel < 50; sel++ {
		cfg, seed := oracleConfig(byte(sel), byte(sel*5+4), byte(sel))
		f, u := newTwinHost(cfg, seed), newTwinHost(cfg, seed)
		ops := xrand.New(uint64(sel) + 7)
		n := len(f.vas)
		for i := 0; i < 400; i++ {
			v := ops.Uint64()
			a, k := int(v>>8)%n, 1+int(v>>16)%10
			batch := make([]memory.VAddr, k)
			for j := range batch {
				batch[j] = f.vas[(a+j*(1+int(v>>24)%3))%n]
			}
			var name string
			switch v % 10 {
			case 0, 1, 2, 3:
				name = "LoadSharedAll"
				fc := f.agents[0].LoadSharedAll(f.agents[1], batch)
				if uc := unfusedLoadSharedAll(u.agents[0], u.agents[1], batch, tally); fc != uc {
					t.Fatalf("sel %d op %d: LoadSharedAll of %d lines = %d fused vs %d unfused", sel, i, k, fc, uc)
				}
			case 4:
				name = "victim Access"
				f.agents[2].Access(batch[0])
				u.agents[2].Access(batch[0])
			case 5:
				name = "AccessParallel"
				f.agents[0].AccessParallel(batch)
				u.agents[0].AccessParallel(batch)
			case 6:
				// Due within a traversal of a few lines, on the main or the
				// victim core, for a line the next traversal may touch.
				name = "Schedule"
				core := 2 * int(v>>32&1)
				at := f.h.clk.Now() + clock.Cycles(v>>40%200)
				e := Event{Time: at, Core: core, PA: f.pas[(a+1)%n], Refetch: v>>33&1 != 0}
				fe, ue := e, e
				fe.Done = func(t clock.Cycles) { f.done = append(f.done, t) }
				ue.Done = func(t clock.Cycles) { u.done = append(u.done, t) }
				f.h.Schedule(fe)
				u.h.Schedule(ue)
			case 7:
				name = "Flush"
				f.agents[0].Flush(batch[0])
				u.agents[0].Flush(batch[0])
			case 8:
				name = "Idle"
				d := clock.Cycles(v >> 40 % 3000)
				f.agents[0].Idle(d)
				u.agents[0].Idle(d)
			case 9:
				name = "helper Access"
				f.agents[1].Access(batch[0])
				u.agents[1].Access(batch[0])
			}
			sameHosts(t, fmt.Sprintf("sel %d op %d (%s)", sel, i, name), f, u)
		}
	}
	for _, b := range []string{
		"SF forward from a victim core",
		"SF forward from the helper",
		"own SF entry",
		"drop removes main's copy",
		"LLC hit with main as sharer",
		"LLC hit",
		"full miss",
		"event due on the main core",
		"event due on another core",
		"partition defense",
		"fallback on randomize",
		"fallback on scatter",
	} {
		if tally[b] == 0 {
			t.Errorf("no traversed line took the branch %q; tally %v", b, tally)
		}
	}
	t.Logf("branch tally: %v", tally)
}
