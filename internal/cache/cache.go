package cache

import (
	"fmt"

	"repro/internal/xrand"
)

// Tag identifies a cache line by its full physical line address. The zero
// value is never a valid tag because physical frame 0 is reserved by the
// hierarchy, but validity is tracked explicitly anyway.
type Tag uint64

// Cache is a single-array set-associative cache (one slice of a sliced
// structure, or a whole private cache). All per-line state is stored in
// flat structure-of-arrays slices indexed set*ways+way — sized once at
// construction, reset by bulk clears, no per-set allocations or pointer
// chasing on the access path. split is the way-partition boundary
// (0 = unpartitioned); a partitioned cache keeps two independent
// regionPolicy instances, one per region, exactly as the reference model
// keeps two policyState objects per set.
type Cache struct {
	name  string
	ways  int
	nsets int
	split int

	tags    []Tag   // set*ways + way
	valid   []bool  // set*ways + way
	payload []uint8 // set*ways + way

	r0  regionPolicy // ways [0, split) — or the whole set when split == 0
	r1  regionPolicy // ways [split, ways); unused when split == 0
	rng *xrand.Rand  // randomized-policy source, shared across sets
}

// Config describes a cache array's geometry.
type Config struct {
	Name   string
	Sets   int
	Ways   int
	Policy PolicyKind
	// PartitionAt way-partitions every set into region 0 (ways
	// [0, PartitionAt)) and region 1 (the rest), each with independent
	// replacement state; allocations are then confined to the region
	// named in InsertRegion. 0 (the default) builds an unpartitioned
	// cache whose behaviour is bit-identical to the pre-partition code.
	PartitionAt int
}

// New builds a cache. rng seeds randomized replacement policies; it must
// not be nil when Policy is RandomRepl or SRRIP.
func New(cfg Config, rng *xrand.Rand) *Cache {
	if cfg.Sets <= 0 || cfg.Ways <= 0 {
		panic(fmt.Sprintf("cache %q: invalid geometry %d sets x %d ways", cfg.Name, cfg.Sets, cfg.Ways))
	}
	if cfg.PartitionAt < 0 || cfg.PartitionAt >= cfg.Ways {
		panic(fmt.Sprintf("cache %q: partition at %d outside (0, %d)", cfg.Name, cfg.PartitionAt, cfg.Ways))
	}
	c := &Cache{name: cfg.Name, ways: cfg.Ways, nsets: cfg.Sets, split: cfg.PartitionAt, rng: rng}
	n := cfg.Sets * cfg.Ways
	c.tags = make([]Tag, n)
	c.valid = make([]bool, n)
	c.payload = make([]uint8, n)
	if c.split > 0 {
		c.r0 = newRegionPolicy(cfg.Policy, c.split, cfg.Sets)
		c.r1 = newRegionPolicy(cfg.Policy, cfg.Ways-c.split, cfg.Sets)
	} else {
		c.r0 = newRegionPolicy(cfg.Policy, cfg.Ways, cfg.Sets)
	}
	return c
}

// Split returns the way-partition boundary (0 = unpartitioned).
func (c *Cache) Split() int { return c.split }

// touch records a hit on way w of set idx against the owning region's
// policy.
func (c *Cache) touch(idx, w int) {
	if c.split > 0 && w >= c.split {
		c.r1.touch(idx, w-c.split)
		return
	}
	c.r0.touch(idx, w)
}

// fill records an insertion into way w of set idx against the owning
// region's policy.
func (c *Cache) fill(idx, w int) {
	if c.split > 0 && w >= c.split {
		c.r1.insert(idx, w-c.split)
		return
	}
	c.r0.insert(idx, w)
}

// regionBounds returns the way range [lo, hi) a region may allocate in.
// Region -1 (or an unpartitioned cache) spans every way; on a
// partitioned cache an unregioned insertion is a programming error —
// it would silently breach the isolation the partition exists for.
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
func (c *Cache) regionVictim(idx, lo int) int {
	if c.split > 0 && lo == c.split {
		return c.split + c.r1.victim(idx, c.rng)
	}
	return lo + c.r0.victim(idx, c.rng)
}

// Name returns the configured name ("L2", "LLC[3]", ...).
func (c *Cache) Name() string { return c.name }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.nsets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// base returns the flat-array offset of set i, panicking on
// out-of-range indices. The panic lives in a separate function so base
// itself inlines into every access.
func (c *Cache) base(i int) int {
	if uint(i) >= uint(c.nsets) {
		c.badSet(i)
	}
	return i * c.ways
}

//go:noinline
func (c *Cache) badSet(i int) {
	panic(fmt.Sprintf("cache %q: set index %d out of range [0,%d)", c.name, i, c.nsets))
}

// Lookup probes set idx for tag. On a hit it updates replacement state and
// returns the way's payload. The tag is compared first: it rarely
// matches, so the valid bit is loaded only for a candidate hit.
func (c *Cache) Lookup(idx int, tag Tag) (payload uint8, hit bool) {
	b := c.base(idx)
	tags := c.tags[b : b+c.ways]
	valid := c.valid[b : b+len(tags)]
	for w, t := range tags {
		if t == tag && valid[w] {
			c.touch(idx, w)
			return c.payload[b+w], true
		}
	}
	return 0, false
}

// Contains reports whether tag is present without touching replacement
// state. It is for validation/instrumentation only — attack code must not
// call it.
func (c *Cache) Contains(idx int, tag Tag) bool {
	b := c.base(idx)
	tags := c.tags[b : b+c.ways]
	valid := c.valid[b : b+c.ways]
	for w, v := range valid {
		if v && tags[w] == tag {
			return true
		}
	}
	return false
}

// Peek returns the payload of a resident line without touching
// replacement state. Like Contains it is for validation only.
func (c *Cache) Peek(idx int, tag Tag) (payload uint8, ok bool) {
	b := c.base(idx)
	for w := 0; w < c.ways; w++ {
		if c.valid[b+w] && c.tags[b+w] == tag {
			return c.payload[b+w], true
		}
	}
	return 0, false
}

// Evicted describes a line displaced by an insertion.
type Evicted struct {
	Tag     Tag
	Payload uint8
	Valid   bool
}

// Insert fills tag into set idx with the given payload, evicting a line if
// the set is full. If the tag is already present its payload is updated
// and replacement state touched; no eviction occurs. On a way-partitioned
// cache Insert panics — use InsertRegion, which names the allocating
// domain's region.
func (c *Cache) Insert(idx int, tag Tag, payload uint8) Evicted {
	return c.InsertRegion(-1, idx, tag, payload)
}

// InsertRegion is Insert with allocation confined to one region of a
// way-partitioned cache: region 0 is ways [0, Split()), region 1 the
// remainder, each evicting per its own policy instance. Hits anywhere in
// the set still update in place — residency is set-wide, only
// allocation is regioned. On an unpartitioned cache the region
// (including -1, "unregioned") is ignored and behaviour is identical to
// the historical Insert.
func (c *Cache) InsertRegion(region, idx int, tag Tag, payload uint8) Evicted {
	b := c.base(idx)
	tags := c.tags[b : b+c.ways]
	valid := c.valid[b : b+c.ways]
	lo, hi := c.regionBounds(region)
	// Already present: update in place.
	for w, v := range valid {
		if v && tags[w] == tag {
			c.payload[b+w] = payload
			c.touch(idx, w)
			return Evicted{}
		}
	}
	// Free way available within the region.
	for w := lo; w < hi; w++ {
		if !valid[w] {
			tags[w] = tag
			valid[w] = true
			c.payload[b+w] = payload
			c.fill(idx, w)
			return Evicted{}
		}
	}
	// Evict per the region's policy.
	w := c.regionVictim(idx, lo)
	out := Evicted{Tag: tags[w], Payload: c.payload[b+w], Valid: true}
	tags[w] = tag
	c.payload[b+w] = payload
	c.fill(idx, w)
	return out
}

// UpdatePayload changes the payload of a resident line without touching
// replacement state. It reports whether the line was found.
func (c *Cache) UpdatePayload(idx int, tag Tag, payload uint8) bool {
	b := c.base(idx)
	for w := 0; w < c.ways; w++ {
		if c.valid[b+w] && c.tags[b+w] == tag {
			c.payload[b+w] = payload
			return true
		}
	}
	return false
}

// Remove invalidates tag in set idx, reporting whether it was present.
func (c *Cache) Remove(idx int, tag Tag) (payload uint8, removed bool) {
	b := c.base(idx)
	for w := 0; w < c.ways; w++ {
		if c.valid[b+w] && c.tags[b+w] == tag {
			c.valid[b+w] = false
			return c.payload[b+w], true
		}
	}
	return 0, false
}

// OccupiedWays returns how many ways of set idx hold valid lines.
func (c *Cache) OccupiedWays(idx int) int {
	b := c.base(idx)
	n := 0
	for _, v := range c.valid[b : b+c.ways] {
		if v {
			n++
		}
	}
	return n
}

// TagsIn returns the valid tags in set idx (instrumentation only).
func (c *Cache) TagsIn(idx int) []Tag {
	b := c.base(idx)
	var out []Tag
	for w := 0; w < c.ways; w++ {
		if c.valid[b+w] {
			out = append(out, c.tags[b+w])
		}
	}
	return out
}

// FlushSet invalidates every line in set idx and resets replacement state.
func (c *Cache) FlushSet(idx int) {
	b := c.base(idx)
	for w := range c.valid[b : b+c.ways] {
		c.valid[b+w] = false
	}
	c.r0.resetSet(idx)
	if c.split > 0 {
		c.r1.resetSet(idx)
	}
}

// FlushAll invalidates the whole cache.
func (c *Cache) FlushAll() {
	for i := range c.valid {
		c.valid[i] = false
	}
	c.r0.resetAll()
	if c.split > 0 {
		c.r1.resetAll()
	}
}

// Reset restores the cache to the state New would produce with rng: every
// line invalidated, replacement metadata cleared in bulk, and randomized
// policies re-pointed at rng so the victim stream replays identically. It
// reuses the existing arrays, so pooled hosts reset without allocating.
func (c *Cache) Reset(rng *xrand.Rand) {
	for i := range c.valid {
		c.valid[i] = false
	}
	c.r0.resetAll()
	if c.split > 0 {
		c.r1.resetAll()
	}
	c.rng = rng
}
