package hierarchy

import (
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/defense"
	"repro/internal/memory"
)

// checkInvariants fails the test when the host's state breaks a rule
// the §2.3 protocol (accessState) maintains after every operation. It
// inspects the cache sets of the given lines — the oracle's address
// universe — in every core's L1 and L2 and in the LLC and SF under both
// container mappings.
//
//  1. No tag is valid in two ways of one set. This is cache.Fill's
//     precondition: a fill that skipped the presence scan on a resident
//     tag would break it.
//  2. A privately cached line is SF-tracked or LLC-resident. Every
//     private fill follows an SF allocation, an SF re-own or an
//     SF-forward LLC install, and every SF or LLC eviction
//     back-invalidates the copies it tracked.
//  3. An SF entry owned by core A has no private copy in any other
//     core: an LLC hit invalidates every other core's copy before the
//     SF allocates, and a full miss finds no copy anywhere (rule 2).
//  4. A line is never both SF-tracked and LLC-resident: the SF forward
//     moves it from the SF into the LLC, an LLC hit moves it back, and
//     the reuse predictor inserts only a line the SF just dropped.
//  5. A private copy of an LLC-resident line belongs to one of the
//     sharers its LLC payload records. This is what lets
//     invalidateSharers visit only those cores.
//
// Rules 2-5 resolve a line's set under one mapping, so they hold only
// on hosts whose defense leaves the index alone: a randomize rekey
// orphans resident lines, and scatter places one line in a different
// set per domain.
func checkInvariants(t *testing.T, h *Host, pas []memory.PAddr, after string) {
	t.Helper()
	unique := func(what string, c *cache.Cache, idx int) {
		tags := c.TagsIn(idx)
		for i, tag := range tags {
			if slices.Contains(tags[i+1:], tag) {
				t.Fatalf("after %s: %s set %d holds tag %#x twice: %v", after, what, idx, tag, tags)
			}
		}
	}
	for _, pa := range pas {
		for c := range h.cores {
			unique(h.cores[c].l1.Name(), h.cores[c].l1, h.l1Index(pa))
			unique(h.cores[c].l2.Name(), h.cores[c].l2, h.l2Index(pa))
		}
		for _, d := range []defense.Domain{defense.DomainAttacker, defense.DomainVictim} {
			s := h.setFor(d, pa)
			unique(h.llc[s.Slice].Name(), h.llc[s.Slice], s.Index)
			unique(h.sf[s.Slice].Name(), h.sf[s.Slice], s.Index)
		}
	}
	if h.defHooks.Index {
		return
	}
	for _, pa := range pas {
		s := h.SetOf(pa)
		owner, inSF := h.sf[s.Slice].Peek(s.Index, cache.Tag(pa.Line()))
		dir, inLLC := h.llc[s.Slice].Peek(s.Index, cache.Tag(pa.Line()))
		if inSF && inLLC {
			t.Fatalf("after %s: line %#x is both SF-tracked (owner %d) and LLC-resident", after, pa, owner)
		}
		for c := range h.cores {
			if !h.hasPrivate(c, pa) {
				continue
			}
			if !inSF && !inLLC {
				t.Fatalf("after %s: core %d caches line %#x, which is neither SF-tracked nor LLC-resident", after, c, pa)
			}
			if inSF && int(owner) != c {
				t.Fatalf("after %s: core %d caches line %#x, whose SF entry core %d owns", after, c, pa, owner)
			}
			if inLLC && dir&0xff != uint16(c+1) && dir>>8 != uint16(c+1) {
				t.Fatalf("after %s: core %d caches LLC-resident line %#x, whose recorded sharers are %#04x", after, c, pa, dir)
			}
		}
	}
}
