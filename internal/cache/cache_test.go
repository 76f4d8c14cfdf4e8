package cache

import (
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
