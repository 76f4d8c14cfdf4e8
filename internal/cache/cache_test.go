package cache

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func newCache(t testing.TB, pol PolicyKind, sets, ways int) *Cache {
	t.Helper()
	return New(Config{Name: "test", Sets: sets, Ways: ways, Policy: pol}, xrand.New(1))
}

func TestInsertLookup(t *testing.T) {
	c := newCache(t, TrueLRU, 4, 2)
	c.Insert(0, 100, 7)
	if p, hit := c.Lookup(0, 100); !hit || p != 7 {
		t.Fatalf("lookup = %v,%v", p, hit)
	}
	if _, hit := c.Lookup(1, 100); hit {
		t.Fatal("hit in the wrong set")
	}
	if _, hit := c.Lookup(0, 200); hit {
		t.Fatal("hit for an absent tag")
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := newCache(t, TrueLRU, 1, 4)
	for i := Tag(1); i <= 4; i++ {
		if ev := c.Insert(0, i, 0); ev.Valid {
			t.Fatal("eviction while ways were free")
		}
	}
	// Touch tag 1 so 2 becomes the LRU.
	c.Lookup(0, 1)
	ev := c.Insert(0, 5, 0)
	if !ev.Valid || ev.Tag != 2 {
		t.Fatalf("evicted %v, want 2", ev.Tag)
	}
}

func TestReinsertUpdatesInPlace(t *testing.T) {
	c := newCache(t, TrueLRU, 1, 2)
	c.Insert(0, 1, 10)
	c.Insert(0, 2, 20)
	if ev := c.Insert(0, 1, 11); ev.Valid {
		t.Fatal("reinsertion must not evict")
	}
	if p, _ := c.Lookup(0, 1); p != 11 {
		t.Fatalf("payload = %d, want 11", p)
	}
	if c.OccupiedWays(0) != 2 {
		t.Fatal("duplicate entry created")
	}
}

func TestRemove(t *testing.T) {
	c := newCache(t, TrueLRU, 1, 2)
	c.Insert(0, 1, 9)
	if p, ok := c.Remove(0, 1); !ok || p != 9 {
		t.Fatalf("remove = %v,%v", p, ok)
	}
	if _, ok := c.Remove(0, 1); ok {
		t.Fatal("double remove succeeded")
	}
	if c.OccupiedWays(0) != 0 {
		t.Fatal("set not empty after removal")
	}
}

func TestOccupancyNeverExceedsWays(t *testing.T) {
	for _, pol := range []PolicyKind{TrueLRU, TreePLRU, SRRIP, QLRU, RandomRepl} {
		pol := pol
		f := func(ops []uint16) bool {
			c := newCache(t, pol, 2, 4)
			for _, op := range ops {
				set := int(op) % 2
				tag := Tag(op%97 + 1)
				switch op % 3 {
				case 0:
					c.Insert(set, tag, 0)
				case 1:
					c.Lookup(set, tag)
				case 2:
					c.Remove(set, tag)
				}
				if c.OccupiedWays(0) > 4 || c.OccupiedWays(1) > 4 {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Fatalf("policy %v: %v", pol, err)
		}
	}
}

func TestWConsecutiveInsertionsEvictVictim(t *testing.T) {
	// The eviction-set property that all attack code relies on: with an
	// age-ordered policy, inserting W new lines into a full set displaces
	// any line that is not re-touched.
	c := newCache(t, TrueLRU, 1, 8)
	c.Insert(0, 999, 0)
	for i := Tag(1); i <= 8; i++ {
		c.Insert(0, i, 0)
	}
	if c.Contains(0, 999) {
		t.Fatal("victim survived W insertions under LRU")
	}
}

func TestSRRIPScanResistance(t *testing.T) {
	// SRRIP keeps a re-referenced line through a single scan of W new
	// lines — the behaviour that defeats single-traversal eviction and
	// motivates the replacement-policy ablation.
	c := newCache(t, SRRIP, 1, 8)
	c.Insert(0, 999, 0)
	c.Lookup(0, 999) // promote to RRPV 0
	for i := Tag(1); i <= 8; i++ {
		c.Insert(0, i, 0)
	}
	if !c.Contains(0, 999) {
		t.Fatal("SRRIP evicted a just-promoted line during a scan")
	}
}

func TestFlush(t *testing.T) {
	c := newCache(t, TrueLRU, 2, 2)
	c.Insert(0, 1, 0)
	c.Insert(1, 2, 0)
	c.FlushSet(0)
	if c.Contains(0, 1) || !c.Contains(1, 2) {
		t.Fatal("FlushSet affected the wrong set")
	}
	c.FlushAll()
	if c.Contains(1, 2) {
		t.Fatal("FlushAll left a line")
	}
}

func TestTagsIn(t *testing.T) {
	c := newCache(t, TrueLRU, 1, 3)
	c.Insert(0, 5, 0)
	c.Insert(0, 6, 0)
	tags := c.TagsIn(0)
	if len(tags) != 2 {
		t.Fatalf("tags = %v", tags)
	}
}

func TestUpdatePayload(t *testing.T) {
	c := newCache(t, TrueLRU, 1, 2)
	c.Insert(0, 1, 5)
	if !c.UpdatePayload(0, 1, 9) {
		t.Fatal("update failed")
	}
	if p, _ := c.Lookup(0, 1); p != 9 {
		t.Fatalf("payload = %d", p)
	}
	if c.UpdatePayload(0, 42, 1) {
		t.Fatal("update of absent tag succeeded")
	}
}

func TestPLRUFallbackForOddWays(t *testing.T) {
	// 11 ways is not a power of two: TreePLRU must still work (falls back
	// to LRU) and preserve the W-insertions property.
	c := newCache(t, TreePLRU, 1, 11)
	c.Insert(0, 999, 0)
	for i := Tag(1); i <= 11; i++ {
		c.Insert(0, i, 0)
	}
	if c.Contains(0, 999) {
		t.Fatal("victim survived 11 insertions")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, tc := range []struct {
		ways, partitionAt int
		want              string
	}{
		{0, 0, "invalid geometry"},
		{MaxWays + 1, 0, "invalid geometry"},
		{4, -1, "partition at -1 outside [0, 4)"},
		{4, 4, "partition at 4 outside [0, 4)"},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, tc.want) {
					t.Fatalf("%d ways partitioned at %d: panic %q, want one containing %q", tc.ways, tc.partitionAt, msg, tc.want)
				}
			}()
			New(Config{Name: "bad", Sets: 4, Ways: tc.ways, Policy: TrueLRU, PartitionAt: tc.partitionAt}, xrand.New(1))
		}()
	}
}

// TestVersionCountsChanges pins which operations advance Version: every
// change to a line, a valid bit, a payload or replacement state, and
// nothing else.
func TestVersionCountsChanges(t *testing.T) {
	c := newCache(t, TrueLRU, 2, 2)
	steps := []struct {
		name    string
		op      func()
		changes bool
	}{
		{"fill", func() { c.Insert(0, 1, 0) }, true},
		{"fill second way", func() { c.Fill(-1, 0, 2, 0) }, true},
		{"lookup hit", func() { c.Lookup(0, 1) }, true},
		{"lookup miss", func() { c.Lookup(0, 9) }, false},
		{"insert hit", func() { c.Insert(0, 2, 5) }, true},
		{"insert with eviction", func() { c.Insert(0, 3, 0) }, true},
		{"update payload", func() { c.UpdatePayload(0, 3, 7) }, true},
		{"update payload miss", func() { c.UpdatePayload(0, 9, 7) }, false},
		{"remove", func() { c.Remove(0, 3) }, true},
		{"remove miss", func() { c.Remove(0, 3) }, false},
		{"contains", func() { c.Contains(0, 2) }, false},
		{"peek", func() { c.Peek(0, 2) }, false},
		{"recency", func() { c.Recency(0) }, false},
		{"flush set", func() { c.FlushSet(1) }, true},
		{"flush all", func() { c.FlushAll() }, true},
		{"reset", func() { c.Reset(xrand.New(1)) }, true},
	}
	for _, s := range steps {
		before := c.Version()
		s.op()
		if changed := c.Version() != before; changed != s.changes {
			t.Fatalf("%s: version changed = %v, want %v", s.name, changed, s.changes)
		}
	}
}

func TestResetMatchesFresh(t *testing.T) {
	// A reset cache must replay the victim stream of a freshly built one,
	// including for randomized policies (the host-pool contract).
	for _, pol := range []PolicyKind{TrueLRU, TreePLRU, SRRIP, QLRU, RandomRepl} {
		fresh := New(Config{Name: "f", Sets: 2, Ways: 4, Policy: pol}, xrand.New(5))
		reused := New(Config{Name: "r", Sets: 2, Ways: 4, Policy: pol}, xrand.New(99))
		// Dirty the reused cache.
		for i := Tag(1); i <= 9; i++ {
			reused.Insert(0, i, 0)
			reused.Insert(1, i+100, 0)
		}
		reused.Reset(xrand.New(5))
		for s := 0; s < 2; s++ {
			if n := reused.OccupiedWays(s); n != 0 {
				t.Fatalf("%v: set %d still holds %d lines after reset", pol, s, n)
			}
		}
		for i := Tag(1); i <= 40; i++ {
			fe := fresh.Insert(0, i, 0)
			re := reused.Insert(0, i, 0)
			if fe != re {
				t.Fatalf("%v: insertion %d evicted %v fresh vs %v reset", pol, i, fe, re)
			}
		}
	}
}

// --- Fingerprint filter -----------------------------------------------------

// partner returns the smallest tag above t, in steps of 1<<20 so both
// share their low (index) bits, with t's fingerprint.
func partner(t Tag) Tag {
	u := t + 1<<20
	for Fingerprint(u) != Fingerprint(t) {
		u += 1 << 20
	}
	return u
}

// linearFind is find by its definition: the lowest valid way whose tag
// matches.
func linearFind(c *Cache, idx int, tag Tag) int {
	b, m := c.base(idx)
	for w := 0; w < c.ways; w++ {
		if c.meta[m]&bit(w) != 0 && c.tags[b+w] == tag {
			return w
		}
	}
	return -1
}

// wayOf is find on set idx, checked against the linear scan.
func wayOf(t *testing.T, c *Cache, idx int, tag Tag) int {
	t.Helper()
	b, m := c.base(idx)
	w := c.find(b, m, tag)
	if lw := linearFind(c, idx, tag); w != lw {
		t.Fatalf("find(%d, %#x) = way %d, linear scan way %d", idx, tag, w, lw)
	}
	return w
}

func TestFingerprintCollisionsInOneSet(t *testing.T) {
	c := newCache(t, TrueLRU, 2, 8)
	a := Tag(0x40)
	b := partner(a)
	c.Insert(1, a, 1)
	c.Insert(1, b, 2)
	if wa, wb := wayOf(t, c, 1, a), wayOf(t, c, 1, b); wa != 0 || wb != 1 {
		t.Fatalf("colliding tags in ways %d and %d, want 0 and 1", wa, wb)
	}
	if p, ok := c.Peek(1, b); !ok || p != 2 {
		t.Fatalf("Peek(partner) = %d,%v, want 2,true", p, ok)
	}
	// The partner's candidate way 0 fails the tag compare; removing it
	// must leave a, in way 0, untouched.
	if p, ok := c.Remove(1, b); !ok || p != 2 {
		t.Fatalf("Remove(partner) = %d,%v", p, ok)
	}
	if p, ok := c.Peek(1, a); !ok || p != 1 {
		t.Fatalf("Peek(a) after removing its partner = %d,%v, want 1,true", p, ok)
	}
	if wayOf(t, c, 1, b) != -1 {
		t.Fatal("removed partner still found")
	}
}

func TestFingerprintStaleWayIsRejected(t *testing.T) {
	c := newCache(t, TrueLRU, 1, 4)
	c.Insert(0, 7, 3)
	c.Insert(0, 8, 4)
	c.Remove(0, 7)
	// Way 0 keeps tag 7 and its fingerprint; only the valid bit says no.
	if b, m := c.base(0); c.tags[b] != 7 || c.meta[m]&1 != 0 {
		t.Fatalf("way 0 holds tag %d, valid mask %#x: want the stale tag 7 behind a clear bit", c.tags[b], c.meta[m])
	}
	if wayOf(t, c, 0, 7) != -1 || c.Contains(0, 7) {
		t.Fatal("a removed way's stale tag was found")
	}
	if _, ok := c.Remove(0, 7); ok {
		t.Fatal("a removed way's stale tag was removed twice")
	}
	if _, hit := c.Lookup(0, 7); hit {
		t.Fatal("a removed way's stale tag hit")
	}
	if c.UpdatePayload(0, 7, 1) {
		t.Fatal("a removed way's stale tag took a payload")
	}
	// Re-filling it takes the lowest free way, the stale one.
	c.Insert(0, 7, 5)
	if w := wayOf(t, c, 0, 7); w != 0 {
		t.Fatalf("re-filled tag in way %d, want 0", w)
	}
}

func TestFingerprintSecondWord(t *testing.T) {
	c := newCache(t, TrueLRU, 1, 12)
	for w := Tag(0); w < 9; w++ {
		c.Insert(0, 0x100+w, 0)
	}
	// Way 8 is byte 0 of the second fingerprint word; its partner goes
	// to way 9 beside it.
	a := Tag(0x108)
	b := partner(a)
	c.Insert(0, b, 9)
	if wa, wb := wayOf(t, c, 0, a), wayOf(t, c, 0, b); wa != 8 || wb != 9 {
		t.Fatalf("colliding tags in ways %d and %d, want 8 and 9", wa, wb)
	}
	c.Remove(0, a)
	if wayOf(t, c, 0, a) != -1 || wayOf(t, c, 0, b) != 9 {
		t.Fatal("removing way 8 disturbed the second word's lookups")
	}
}

func TestFingerprintWay63(t *testing.T) {
	c := newCache(t, TrueLRU, 2, 64)
	for w := Tag(0); w < 64; w++ {
		c.Insert(1, 0x1000+w, uint16(w))
	}
	last := Tag(0x1000 + 63)
	if w := wayOf(t, c, 1, last); w != 63 {
		t.Fatalf("way 63's tag found in way %d", w)
	}
	other := partner(last)
	if wayOf(t, c, 1, other) != -1 {
		t.Fatal("the partner of way 63's tag hit a full set")
	}
	if p, ok := c.Remove(1, last); !ok || p != 63 {
		t.Fatalf("Remove(way 63) = %d,%v", p, ok)
	}
	if ev := c.Insert(1, other, 1); ev.Valid {
		t.Fatalf("insert into the freed way 63 evicted %+v", ev)
	}
	if w := wayOf(t, c, 1, other); w != 63 {
		t.Fatalf("partner filled way %d, want 63", w)
	}
	if wayOf(t, c, 1, last) != -1 {
		t.Fatal("way 63's old tag still found")
	}
}

// TestFindMatchesLinearScan checks find against the linear scan on
// random states of every width class: a small tag space of colliding
// pairs, inserts, removes and flushes, and a probe of every tag.
func TestFindMatchesLinearScan(t *testing.T) {
	for _, ways := range []int{1, 7, 8, 9, 16, 33, 56, 57, 64} {
		c := newCache(t, RandomRepl, 2, ways)
		var universe []Tag
		for i := Tag(1); len(universe) < 2*ways+2; i++ {
			universe = append(universe, i<<6, partner(i<<6))
		}
		ops := xrand.New(uint64(ways))
		for i := 0; i < 4000; i++ {
			set, tag := int(ops.Uint64n(2)), universe[ops.Uint64n(uint64(len(universe)))]
			switch ops.Uint64n(16) {
			case 0:
				c.FlushSet(set)
			case 1, 2, 3, 4, 5:
				c.Remove(set, tag)
			default:
				c.Insert(set, tag, 0)
			}
			for _, probe := range universe {
				wayOf(t, c, set, probe)
			}
		}
	}
}

// TestTakeIsLookupThenRemove drives twin caches through one random
// script over every policy, partitioned or not, and at every step
// takes one tag from the first and looks it up then removes it from
// the second: the payload, the hit, the Version and every byte of state
// (ways, valid masks, fingerprints, policy state, random stream) must
// agree.
func TestTakeIsLookupThenRemove(t *testing.T) {
	for _, pol := range Policies() {
		for _, split := range []int{0, 3} {
			cfg := Config{Name: "take", Sets: 2, Ways: 7, Policy: pol, PartitionAt: split}
			a, b := New(cfg, xrand.New(9)), New(cfg, xrand.New(9))
			ops := xrand.New(uint64(pol)*10 + uint64(split))
			for i := 0; i < 3000; i++ {
				set, tag, region := ops.Intn(2), Tag(1+ops.Intn(20)), -1
				if split > 0 {
					region = ops.Intn(2)
				}
				switch ops.Intn(3) {
				case 0:
					a.InsertRegion(region, set, tag, uint16(i))
					b.InsertRegion(region, set, tag, uint16(i))
				case 1:
					a.Lookup(set, tag)
					b.Lookup(set, tag)
				case 2:
					ap, ah := a.Take(set, tag)
					bp, bh := b.Lookup(set, tag)
					if rp, rh := b.Remove(set, tag); rp != bp || rh != bh {
						t.Fatalf("%v: Remove after Lookup = (%d, %v), Lookup = (%d, %v)", pol, rp, rh, bp, bh)
					}
					if ap != bp || ah != bh {
						t.Fatalf("%v split %d op %d: Take = (%d, %v), Lookup then Remove = (%d, %v)", pol, split, i, ap, ah, bp, bh)
					}
				}
				if a.Version() != b.Version() || !reflect.DeepEqual(a, b) {
					t.Fatalf("%v split %d op %d: state differs (Version %d vs %d)", pol, split, i, a.Version(), b.Version())
				}
			}
		}
	}
}
