package cache

import (
	"testing"

	"repro/internal/xrand"
)

func newPartitioned(t *testing.T, policy PolicyKind) *Cache {
	t.Helper()
	return New(Config{Name: "part", Sets: 4, Ways: 8, Policy: policy, PartitionAt: 3}, xrand.New(1))
}

// TestPartitionIsolation is the security property the partition model
// relies on: allocations in one region never displace the other
// region's lines, under every replacement policy.
func TestPartitionIsolation(t *testing.T) {
	for _, pol := range Policies() {
		c := newPartitioned(t, pol)
		// Fill region 0 (3 ways) with tags 1..3.
		for tag := Tag(1); tag <= 3; tag++ {
			if ev := c.InsertRegion(0, 0, tag<<6, 0); ev.Valid {
				t.Fatalf("%v: filling region 0 evicted %v", pol, ev)
			}
		}
		// Hammer region 1 with far more tags than its 5 ways.
		for tag := Tag(100); tag < 140; tag++ {
			ev := c.InsertRegion(1, 0, tag<<6, 0)
			if ev.Valid && ev.Tag < 100<<6 {
				t.Fatalf("%v: region-1 insertion evicted region-0 tag %v", pol, ev.Tag)
			}
		}
		for tag := Tag(1); tag <= 3; tag++ {
			if !c.Contains(0, tag<<6) {
				t.Fatalf("%v: region-0 tag %d displaced by region-1 traffic", pol, tag)
			}
		}
		// And the mirror image: region 0 cannot displace region 1.
		c2 := newPartitioned(t, pol)
		for tag := Tag(200); tag < 205; tag++ {
			c2.InsertRegion(1, 0, tag<<6, 0)
		}
		for tag := Tag(1); tag < 40; tag++ {
			ev := c2.InsertRegion(0, 0, tag<<6, 0)
			if ev.Valid && ev.Tag >= 200<<6 {
				t.Fatalf("%v: region-0 insertion evicted region-1 tag %v", pol, ev.Tag)
			}
		}
	}
}

// TestPartitionRegionCapacity: each region evicts exactly when its own
// ways are exhausted, not at the set's nominal associativity.
func TestPartitionRegionCapacity(t *testing.T) {
	c := newPartitioned(t, TrueLRU)
	// Region 0 holds 3 ways: the 4th insertion evicts the LRU (tag 1).
	for tag := Tag(1); tag <= 3; tag++ {
		c.InsertRegion(0, 1, tag<<6, 0)
	}
	ev := c.InsertRegion(0, 1, 4<<6, 0)
	if !ev.Valid || ev.Tag != 1<<6 {
		t.Fatalf("4th region-0 insertion: evicted %+v, want tag 1", ev)
	}
	if c.OccupiedWays(1) != 3 {
		t.Fatalf("occupied = %d, want 3", c.OccupiedWays(1))
	}
}

func TestPartitionedInsertWithoutRegionPanics(t *testing.T) {
	c := newPartitioned(t, TrueLRU)
	defer func() {
		if recover() == nil {
			t.Fatal("unregioned Insert into a partitioned cache must panic")
		}
	}()
	c.Insert(0, 1<<6, 0)
}

func TestUnpartitionedIgnoresRegion(t *testing.T) {
	c := New(Config{Name: "flat", Sets: 2, Ways: 4, Policy: TrueLRU}, xrand.New(1))
	if c.Split() != 0 {
		t.Fatal("unpartitioned cache reports a split")
	}
	// Region arguments (any value) are ignored: all 4 ways usable.
	for tag := Tag(1); tag <= 4; tag++ {
		if ev := c.InsertRegion(0, 0, tag<<6, 0); ev.Valid {
			t.Fatalf("eviction before the set filled: %+v", ev)
		}
	}
	if ev := c.InsertRegion(1, 0, 9<<6, 0); !ev.Valid {
		t.Fatal("5th insertion must evict")
	}
}

// TestPartitionReset: FlushSet and Reset restore both regions' policy
// state, so a reset partitioned cache replays a fresh one.
func TestPartitionReset(t *testing.T) {
	run := func(c *Cache) []Tag {
		var evs []Tag
		for tag := Tag(1); tag < 30; tag++ {
			reg := int(tag) % 2
			if ev := c.InsertRegion(reg, 0, tag<<6, uint16(reg)); ev.Valid {
				evs = append(evs, ev.Tag)
			}
		}
		return evs
	}
	c := newPartitioned(t, SRRIP)
	a := run(c)
	c.Reset(xrand.New(42))
	b := run(c)
	c2 := New(Config{Name: "part", Sets: 4, Ways: 8, Policy: SRRIP, PartitionAt: 3}, xrand.New(42))
	d := run(c2)
	if len(b) != len(d) {
		t.Fatalf("reset replay differs from fresh: %d vs %d evictions", len(b), len(d))
	}
	for i := range b {
		if b[i] != d[i] {
			t.Fatalf("reset replay diverges at eviction %d: %v vs %v", i, b[i], d[i])
		}
	}
	_ = a
}

func TestBadPartitionPanics(t *testing.T) {
	for _, at := range []int{-1, 8, 9} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PartitionAt=%d must panic", at)
				}
			}()
			New(Config{Name: "bad", Sets: 2, Ways: 8, PartitionAt: at}, xrand.New(1))
		}()
	}
}
