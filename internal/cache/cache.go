package cache

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/xrand"
)

// Tag identifies a cache line by its full physical line address. The zero
// value is never a valid tag because physical frame 0 is reserved by the
// hierarchy, but validity is tracked explicitly anyway.
type Tag uint64

// Cache is a single-array set-associative cache (one slice of a sliced
// structure, or a whole private cache). Tags and payloads are stored in
// flat structure-of-arrays slices indexed set*ways+way; validity is one
// 64-bit mask per set, bit w for way w, so an empty set answers Remove
// after one load and a free way is one TrailingZeros64. An invalidated
// way keeps its stale tag: every scan compares the tag first and tests
// the mask bit only on a match. Everything is sized once at
// construction and reset by bulk clears — no per-set allocations or
// pointer chasing on the access path. split is the way-partition
// boundary (0 = unpartitioned); a partitioned cache keeps two
// independent regionPolicy instances, one per region, exactly as the
// reference model keeps two policyState objects per set.
type Cache struct {
	name  string
	ways  int
	nsets int
	split int

	tags    []Tag    // set*ways + way
	valid   []uint64 // per set: bit w set iff way w holds a line
	payload []uint8  // set*ways + way
	ver     uint64   // see Version; beside valid, which every change reads

	r0  regionPolicy // ways [0, split) — or the whole set when split == 0
	r1  regionPolicy // ways [split, ways); unused when split == 0
	rng *xrand.Rand  // randomized-policy source, shared across sets
}

// MaxWays is the widest associativity a Cache supports: one valid-mask
// word per set.
const MaxWays = 64

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
	if cfg.Sets <= 0 || cfg.Ways <= 0 || cfg.Ways > MaxWays {
		panic(fmt.Sprintf("cache %q: invalid geometry %d sets x %d ways", cfg.Name, cfg.Sets, cfg.Ways))
	}
	if cfg.PartitionAt < 0 || cfg.PartitionAt >= cfg.Ways {
		panic(fmt.Sprintf("cache %q: partition at %d outside [0, %d)", cfg.Name, cfg.PartitionAt, cfg.Ways))
	}
	c := &Cache{name: cfg.Name, ways: cfg.Ways, nsets: cfg.Sets, split: cfg.PartitionAt, rng: rng}
	n := cfg.Sets * cfg.Ways
	c.tags = make([]Tag, n)
	c.valid = make([]uint64, cfg.Sets)
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

// Version counts the changes made to the cache: every placement, every
// Remove or UpdatePayload that finds its tag, every replacement-state
// touch (so every Lookup or InsertRegion hit), FlushSet, FlushAll and
// Reset. Two equal readings prove that no line, valid bit, payload or
// replacement state changed in between.
func (c *Cache) Version() uint64 { return c.ver }

// touch records a hit on way w of set idx against the owning region's
// policy.
func (c *Cache) touch(idx, w int) {
	c.ver++
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
// returns the way's payload.
func (c *Cache) Lookup(idx int, tag Tag) (payload uint8, hit bool) {
	b := c.base(idx)
	if w := c.find(b, idx, tag); w >= 0 {
		c.touch(idx, w)
		return c.payload[b+w], true
	}
	return 0, false
}

// bit returns way w's valid-mask bit. Masking the shift count (w is
// always below 64) keeps it bounded, so the compiler emits BT/BTS/BTR
// with the way in any register instead of a CL shift and a >= 64 fixup,
// which would tie up the tag scan's registers.
func bit(w int) uint64 { return 1 << (w & 63) }

// find returns the way holding a valid copy of tag in set idx (whose
// flat offset is b), or -1. Stale tags of removed ways fail the mask
// test, which runs only on a tag match.
func (c *Cache) find(b, idx int, tag Tag) int {
	for w, t := range c.tags[b : b+c.ways] {
		if t == tag && c.valid[idx]&bit(w) != 0 {
			return w
		}
	}
	return -1
}

// Contains reports whether tag is present without touching replacement
// state. It is for validation/instrumentation only — attack code must not
// call it.
func (c *Cache) Contains(idx int, tag Tag) bool {
	return c.find(c.base(idx), idx, tag) >= 0
}

// Peek returns the payload of a resident line without touching
// replacement state. Like Contains it is for validation only.
func (c *Cache) Peek(idx int, tag Tag) (payload uint8, ok bool) {
	b := c.base(idx)
	if w := c.find(b, idx, tag); w >= 0 {
		return c.payload[b+w], true
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
	lo, hi := c.regionBounds(region)
	if w := c.find(b, idx, tag); w >= 0 {
		c.payload[b+w] = payload
		c.touch(idx, w)
		return Evicted{}
	}
	return c.place(b, idx, lo, hi, tag, payload)
}

// Fill is InsertRegion without the presence scan: it allocates tag in
// the region's lowest free way, or over the region policy's victim. The
// caller must have just missed on tag in this set, with nothing since
// that could have inserted it; otherwise the tag would end up valid in
// two ways.
func (c *Cache) Fill(region, idx int, tag Tag, payload uint8) Evicted {
	b := c.base(idx)
	lo, hi := c.regionBounds(region)
	return c.place(b, idx, lo, hi, tag, payload)
}

// place allocates tag, known absent, in ways [lo, hi) of set idx.
func (c *Cache) place(b, idx, lo, hi int, tag Tag, payload uint8) Evicted {
	out := Evicted{}
	// The lowest free way within the region; the region's mask is ones
	// at [lo, hi) (a shift by 64 is 0 in Go, so hi = 64 is exact).
	w := bits.TrailingZeros64(^c.valid[idx] & (1<<hi - 1) &^ (1<<lo - 1))
	if w == 64 {
		w = c.regionVictim(idx, lo)
		out = Evicted{Tag: c.tags[b+w], Payload: c.payload[b+w], Valid: true}
	}
	c.ver++
	c.tags[b+w] = tag
	c.valid[idx] |= bit(w)
	c.payload[b+w] = payload
	c.fill(idx, w)
	return out
}

// UpdatePayload changes the payload of a resident line without touching
// replacement state. It reports whether the line was found.
func (c *Cache) UpdatePayload(idx int, tag Tag, payload uint8) bool {
	b := c.base(idx)
	if w := c.find(b, idx, tag); w >= 0 {
		c.ver++
		c.payload[b+w] = payload
		return true
	}
	return false
}

// Remove invalidates tag in set idx, reporting whether it was present.
// Only valid ways are visited, so a set holding no line (an idle core's
// private cache under back-invalidation) costs one load.
func (c *Cache) Remove(idx int, tag Tag) (payload uint8, removed bool) {
	b := c.base(idx)
	for m := c.valid[idx]; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if c.tags[b+w] == tag {
			c.ver++
			c.valid[idx] &^= bit(w)
			return c.payload[b+w], true
		}
	}
	return 0, false
}

// Recency returns set idx's true-LRU recency order, most recently used
// way first, or nil when the cache is partitioned or its policy does
// not keep one. Like TagsIn it is for validation only.
func (c *Cache) Recency(idx int) []uint8 {
	c.base(idx)
	if c.split != 0 || c.r0.kind != rLRU {
		return nil
	}
	return slices.Clone(c.r0.meta[idx*c.r0.stride : idx*c.r0.stride+c.ways])
}

// OccupiedWays returns how many ways of set idx hold valid lines.
func (c *Cache) OccupiedWays(idx int) int {
	c.base(idx)
	return bits.OnesCount64(c.valid[idx])
}

// TagsIn returns the valid tags in set idx in way order (instrumentation
// only).
func (c *Cache) TagsIn(idx int) []Tag {
	b := c.base(idx)
	var out []Tag
	for m := c.valid[idx]; m != 0; m &= m - 1 {
		out = append(out, c.tags[b+bits.TrailingZeros64(m)])
	}
	return out
}

// FlushSet invalidates every line in set idx and resets replacement state.
func (c *Cache) FlushSet(idx int) {
	c.base(idx)
	c.ver++
	c.valid[idx] = 0
	c.r0.resetSet(idx)
	if c.split > 0 {
		c.r1.resetSet(idx)
	}
}

// FlushAll invalidates the whole cache.
func (c *Cache) FlushAll() {
	c.ver++
	clear(c.valid)
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
	c.FlushAll()
	c.rng = rng
}
