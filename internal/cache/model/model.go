// Package model is the reference oracle for internal/cache: a slow,
// obviously-correct implementation of set-associative lookup, insertion,
// way-partitioned allocation and every replacement policy, kept
// deliberately naive (one heap object per set, interface-dispatched
// policy state) so its behaviour is easy to audit by eye.
//
// It is the pre-optimization cache implementation, preserved verbatim
// except that payloads widened to uint16 with the fast cache's.
// The optimized flat-array cache in the parent package must match it
// op-for-op on arbitrary operation sequences; oracle_test.go enforces
// that with fuzzed scripts and metamorphic invariants. Simulation code
// must never import this package — it exists only to license changes to
// the hot path.
package model

import (
	"fmt"
	"slices"

	"repro/internal/cache"
	"repro/internal/xrand"
)

// Set is one associative set: ways tagged lines plus replacement state and
// an optional per-way payload. In a way-partitioned cache the replacement
// state is split per region: pol governs ways [0, split) and pol2 ways
// [split, ways), each an independent policy instance of its region's
// size; unpartitioned sets keep pol over the whole set and a nil pol2.
type Set struct {
	tags    []cache.Tag
	valid   []bool
	payload []uint16
	pol     policyState
	pol2    policyState
}

// Cache is the reference cache array. It mirrors the public API of
// cache.Cache exactly, including panic messages.
type Cache struct {
	name  string
	sets  []Set
	ways  int
	nsets int
	split int
}

// New builds a reference cache from the same Config the optimized
// implementation takes.
func New(cfg cache.Config, rng *xrand.Rand) *Cache {
	if cfg.Sets <= 0 || cfg.Ways <= 0 {
		panic(fmt.Sprintf("cache %q: invalid geometry %d sets x %d ways", cfg.Name, cfg.Sets, cfg.Ways))
	}
	if cfg.PartitionAt < 0 || cfg.PartitionAt >= cfg.Ways {
		panic(fmt.Sprintf("cache %q: partition at %d outside [0, %d)", cfg.Name, cfg.PartitionAt, cfg.Ways))
	}
	c := &Cache{name: cfg.Name, ways: cfg.Ways, nsets: cfg.Sets, split: cfg.PartitionAt}
	c.sets = make([]Set, cfg.Sets)
	for i := range c.sets {
		s := Set{
			tags:    make([]cache.Tag, cfg.Ways),
			valid:   make([]bool, cfg.Ways),
			payload: make([]uint16, cfg.Ways),
		}
		if c.split > 0 {
			s.pol = newPolicyState(cfg.Policy, c.split, rng)
			s.pol2 = newPolicyState(cfg.Policy, cfg.Ways-c.split, rng)
		} else {
			s.pol = newPolicyState(cfg.Policy, cfg.Ways, rng)
		}
		c.sets[i] = s
	}
	return c
}

// Split returns the way-partition boundary (0 = unpartitioned).
func (c *Cache) Split() int { return c.split }

// touch records a hit on way w against the owning region's policy.
func (s *Set) touch(split, w int) {
	if split > 0 && w >= split {
		s.pol2.touch(w - split)
		return
	}
	s.pol.touch(w)
}

// fill records an insertion into way w against the owning region's
// policy.
func (s *Set) fill(split, w int) {
	if split > 0 && w >= split {
		s.pol2.insert(w - split)
		return
	}
	s.pol.insert(w)
}

// regionBounds returns the way range [lo, hi) a region may allocate in.
func (c *Cache) regionBounds(region int) (lo, hi int) {
	if c.split == 0 {
		return 0, c.ways
	}
	switch region {
	case 0:
		return 0, c.split
	case 1:
		return c.split, c.ways
	default:
		panic(fmt.Sprintf("cache %q: unregioned insert into a partitioned cache", c.name))
	}
}

// regionVictim selects the eviction victim within the region's ways per
// the region's own policy instance.
func (c *Cache) regionVictim(s *Set, lo int) int {
	if c.split > 0 && lo == c.split {
		return c.split + s.pol2.victim()
	}
	return lo + s.pol.victim()
}

// Name returns the configured name.
func (c *Cache) Name() string { return c.name }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.nsets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// set returns the set at index i, panicking on out-of-range indices.
func (c *Cache) set(i int) *Set {
	if i < 0 || i >= c.nsets {
		panic(fmt.Sprintf("cache %q: set index %d out of range [0,%d)", c.name, i, c.nsets))
	}
	return &c.sets[i]
}

// Lookup probes set idx for tag. On a hit it updates replacement state and
// returns the way's payload.
func (c *Cache) Lookup(idx int, tag cache.Tag) (payload uint16, hit bool) {
	s := c.set(idx)
	for w, v := range s.valid {
		if v && s.tags[w] == tag {
			s.touch(c.split, w)
			return s.payload[w], true
		}
	}
	return 0, false
}

// Contains reports whether tag is present without touching replacement
// state.
func (c *Cache) Contains(idx int, tag cache.Tag) bool {
	s := c.set(idx)
	for w, v := range s.valid {
		if v && s.tags[w] == tag {
			return true
		}
	}
	return false
}

// Peek returns the payload of a resident line without touching
// replacement state.
func (c *Cache) Peek(idx int, tag cache.Tag) (payload uint16, ok bool) {
	s := c.set(idx)
	for w, v := range s.valid {
		if v && s.tags[w] == tag {
			return s.payload[w], true
		}
	}
	return 0, false
}

// Insert fills tag into set idx, evicting a line if the set is full.
func (c *Cache) Insert(idx int, tag cache.Tag, payload uint16) cache.Evicted {
	return c.InsertRegion(-1, idx, tag, payload)
}

// InsertRegion is Insert with allocation confined to one region of a
// way-partitioned cache. Hits anywhere in the set still update in place —
// residency is set-wide, only allocation is regioned.
func (c *Cache) InsertRegion(region, idx int, tag cache.Tag, payload uint16) cache.Evicted {
	s := c.set(idx)
	lo, hi := c.regionBounds(region)
	// Already present: update in place.
	for w, v := range s.valid {
		if v && s.tags[w] == tag {
			s.payload[w] = payload
			s.touch(c.split, w)
			return cache.Evicted{}
		}
	}
	// Free way available within the region.
	for w := lo; w < hi; w++ {
		if !s.valid[w] {
			s.tags[w] = tag
			s.valid[w] = true
			s.payload[w] = payload
			s.fill(c.split, w)
			return cache.Evicted{}
		}
	}
	// Evict per the region's policy.
	w := c.regionVictim(s, lo)
	out := cache.Evicted{Tag: s.tags[w], Payload: s.payload[w], Valid: true}
	s.tags[w] = tag
	s.payload[w] = payload
	s.fill(c.split, w)
	return out
}

// UpdatePayload changes the payload of a resident line without touching
// replacement state.
func (c *Cache) UpdatePayload(idx int, tag cache.Tag, payload uint16) bool {
	s := c.set(idx)
	for w, v := range s.valid {
		if v && s.tags[w] == tag {
			s.payload[w] = payload
			return true
		}
	}
	return false
}

// Remove invalidates tag in set idx, reporting whether it was present.
func (c *Cache) Remove(idx int, tag cache.Tag) (payload uint16, removed bool) {
	s := c.set(idx)
	for w, v := range s.valid {
		if v && s.tags[w] == tag {
			s.valid[w] = false
			return s.payload[w], true
		}
	}
	return 0, false
}

// OccupiedWays returns how many ways of set idx hold valid lines.
func (c *Cache) OccupiedWays(idx int) int {
	s := c.set(idx)
	n := 0
	for _, v := range s.valid {
		if v {
			n++
		}
	}
	return n
}

// TagsIn returns the valid tags in set idx.
func (c *Cache) TagsIn(idx int) []cache.Tag {
	s := c.set(idx)
	var out []cache.Tag
	for w, v := range s.valid {
		if v {
			out = append(out, s.tags[w])
		}
	}
	return out
}

// Recency returns set idx's true-LRU recency order, most recently used
// way first, or nil when the cache is partitioned or its policy does
// not keep one.
func (c *Cache) Recency(idx int) []uint8 {
	s := c.set(idx)
	if l, ok := s.pol.(*lruState); ok && c.split == 0 {
		return slices.Clone(l.order)
	}
	return nil
}

// FlushSet invalidates every line in set idx and resets replacement state.
func (c *Cache) FlushSet(idx int) {
	s := c.set(idx)
	for w := range s.valid {
		s.valid[w] = false
	}
	s.pol.reset()
	if s.pol2 != nil {
		s.pol2.reset()
	}
}

// FlushAll invalidates the whole cache.
func (c *Cache) FlushAll() {
	for i := range c.sets {
		c.FlushSet(i)
	}
}

// Reset restores the cache to the state New would produce with rng.
func (c *Cache) Reset(rng *xrand.Rand) {
	for i := range c.sets {
		s := &c.sets[i]
		for w := range s.valid {
			s.valid[w] = false
		}
		s.pol.reset()
		s.pol.reseed(rng)
		if s.pol2 != nil {
			s.pol2.reset()
			s.pol2.reseed(rng)
		}
	}
}
