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
// flat structure-of-arrays slices indexed set*ways+way. Each set also
// owns stride consecutive meta words: its valid mask (bit w for way w),
// so an empty set answers Remove after one load and a free way is one
// TrailingZeros64, then its ways' one-byte tag fingerprints, eight per
// word. A scan matches the fingerprint eight ways at a time and
// confirms each candidate, lowest way first, by its valid bit and a
// full tag compare; an invalidated way keeps its stale tag and
// fingerprint, which the valid bit rejects. Everything is sized once at
// construction and reset by bulk clears — no per-set allocations or
// pointer chasing on the access path. split is the way-partition
// boundary (0 = unpartitioned); a partitioned cache keeps two
// independent regionPolicy instances, one per region, exactly as the
// reference model keeps two policyState objects per set.
type Cache struct {
	name   string
	ways   int
	nsets  int
	split  int
	stride int // meta words per set: 1 + ceil(ways/8)

	tags    []Tag    // set*ways + way
	meta    []uint64 // set*stride: valid mask, then fingerprint words
	payload []uint16 // set*ways + way
	ver     uint64   // see Version; beside meta, which every change reads

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
	c.stride = 1 + (cfg.Ways+7)/8
	n := cfg.Sets * cfg.Ways
	c.tags = make([]Tag, n)
	c.meta = make([]uint64, cfg.Sets*c.stride)
	c.payload = make([]uint16, n)
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

// base returns set i's offsets into the way arrays (b) and into meta
// (m), panicking on out-of-range indices. The panic lives in a separate
// function so base itself inlines into every access.
func (c *Cache) base(i int) (b, m int) {
	if uint(i) >= uint(c.nsets) {
		c.badSet(i)
	}
	return i * c.ways, i * c.stride
}

//go:noinline
func (c *Cache) badSet(i int) {
	panic(fmt.Sprintf("cache %q: set index %d out of range [0,%d)", c.name, i, c.nsets))
}

// Lookup probes set idx for tag. On a hit it updates replacement state and
// returns the way's payload.
func (c *Cache) Lookup(idx int, tag Tag) (payload uint16, hit bool) {
	b, m := c.base(idx)
	if w := c.find(b, m, tag); w >= 0 {
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

// Fingerprint is a tag's one-byte filter key: the top byte of a
// multiplicative hash of the whole tag, since the tags of one set share
// their index bits. Equal tags have equal fingerprints; unequal tags
// collide in about one way in 256, and the full tag compare settles it.
func Fingerprint(tag Tag) uint8 { return uint8(uint64(tag) * 0x9e3779b97f4a7c15 >> 56) }

// ones has the low bit of every byte set, low7 the low seven and highs
// the high one.
const (
	ones  = 0x0101010101010101
	low7  = 0x7f7f7f7f7f7f7f7f
	highs = 0x8080808080808080
)

// zeroBytes returns 0x80 in every zero byte of x and 0 elsewhere: a
// byte's high bit survives the OR chain only when the byte is zero. It
// is exact, with no borrow between bytes.
func zeroBytes(x uint64) uint64 { return ^((x&low7 + low7) | x | low7) }

// find returns the lowest way holding a valid copy of tag in the set
// whose offsets are b and m, or -1 — the way a linear scan of the tags
// returns. A set holding no line (an idle core's private cache under
// back-invalidation, or any set of a fresh host) answers after one load
// of its valid mask. Otherwise the fingerprint words only nominate
// candidates: each is confirmed by its valid bit (before the tag is
// read, so a byte past the last way is never followed) and a full tag
// compare, in increasing way order.
func (c *Cache) find(b, m int, tag Tag) int {
	set := c.meta[m : m+c.stride]
	valid := set[0]
	if valid == 0 {
		return -1
	}
	pat := uint64(Fingerprint(tag)) * ones
	for k, fp := range set[1:] {
		for z := zeroBytes(fp ^ pat); z != 0; z &= z - 1 {
			w := k<<3 | bits.TrailingZeros64(z)>>3
			if valid&bit(w) != 0 && c.tags[b+w] == tag {
				return w
			}
		}
	}
	return -1
}

// Contains reports whether tag is present without touching replacement
// state. It is for validation/instrumentation only — attack code must not
// call it.
func (c *Cache) Contains(idx int, tag Tag) bool {
	b, m := c.base(idx)
	return c.find(b, m, tag) >= 0
}

// Peek returns the payload of a resident line without touching
// replacement state. Like Contains it is for validation only.
func (c *Cache) Peek(idx int, tag Tag) (payload uint16, ok bool) {
	b, m := c.base(idx)
	if w := c.find(b, m, tag); w >= 0 {
		return c.payload[b+w], true
	}
	return 0, false
}

// Evicted describes a line displaced by an insertion.
type Evicted struct {
	Tag     Tag
	Payload uint16
	Valid   bool
}

// Insert fills tag into set idx with the given payload, evicting a line if
// the set is full. If the tag is already present its payload is updated
// and replacement state touched; no eviction occurs. On a way-partitioned
// cache Insert panics — use InsertRegion, which names the allocating
// domain's region.
func (c *Cache) Insert(idx int, tag Tag, payload uint16) Evicted {
	return c.InsertRegion(-1, idx, tag, payload)
}

// InsertRegion is Insert with allocation confined to one region of a
// way-partitioned cache: region 0 is ways [0, Split()), region 1 the
// remainder, each evicting per its own policy instance. Hits anywhere in
// the set still update in place — residency is set-wide, only
// allocation is regioned. On an unpartitioned cache the region
// (including -1, "unregioned") is ignored and behaviour is identical to
// the historical Insert.
func (c *Cache) InsertRegion(region, idx int, tag Tag, payload uint16) Evicted {
	b, m := c.base(idx)
	lo, hi := c.regionBounds(region)
	if w := c.find(b, m, tag); w >= 0 {
		c.payload[b+w] = payload
		c.touch(idx, w)
		return Evicted{}
	}
	return c.place(b, m, idx, lo, hi, tag, payload)
}

// Fill is InsertRegion without the presence scan: it allocates tag in
// the region's lowest free way, or over the region policy's victim. The
// caller must have just missed on tag in this set, with nothing since
// that could have inserted it; otherwise the tag would end up valid in
// two ways.
func (c *Cache) Fill(region, idx int, tag Tag, payload uint16) Evicted {
	b, m := c.base(idx)
	lo, hi := c.regionBounds(region)
	return c.place(b, m, idx, lo, hi, tag, payload)
}

// place allocates tag, known absent, in ways [lo, hi) of set idx, and
// writes the way's fingerprint byte.
func (c *Cache) place(b, m, idx, lo, hi int, tag Tag, payload uint16) Evicted {
	out := Evicted{}
	// The lowest free way within the region; the region's mask is ones
	// at [lo, hi) (a shift by 64 is 0 in Go, so hi = 64 is exact).
	w := bits.TrailingZeros64(^c.meta[m] & (1<<hi - 1) &^ (1<<lo - 1))
	if w == 64 {
		w = c.regionVictim(idx, lo)
		out = Evicted{Tag: c.tags[b+w], Payload: c.payload[b+w], Valid: true}
	}
	c.ver++
	c.tags[b+w] = tag
	c.meta[m] |= bit(w)
	fp, sh := &c.meta[m+1+w>>3], uint(w&7)*8
	*fp = *fp&^(0xff<<sh) | uint64(Fingerprint(tag))<<sh
	c.payload[b+w] = payload
	c.fill(idx, w)
	return out
}

// UpdatePayload changes the payload of a resident line without touching
// replacement state. It reports whether the line was found.
func (c *Cache) UpdatePayload(idx int, tag Tag, payload uint16) bool {
	b, m := c.base(idx)
	if w := c.find(b, m, tag); w >= 0 {
		c.ver++
		c.payload[b+w] = payload
		return true
	}
	return false
}

// Take is Lookup then Remove in one scan: on a hit it touches the way's
// replacement state, invalidates the way and returns its payload, and
// Version advances by two, as it would over the two calls. A line that
// moves to another structure (an SF entry forwarded into the LLC, an
// LLC line taken Exclusive) leaves through Take.
func (c *Cache) Take(idx int, tag Tag) (payload uint16, hit bool) {
	b, m := c.base(idx)
	if w := c.find(b, m, tag); w >= 0 {
		c.touch(idx, w)
		c.ver++
		c.meta[m] &^= bit(w)
		return c.payload[b+w], true
	}
	return 0, false
}

// Remove invalidates tag in set idx, reporting whether it was present.
func (c *Cache) Remove(idx int, tag Tag) (payload uint16, removed bool) {
	b, m := c.base(idx)
	if w := c.find(b, m, tag); w >= 0 {
		c.ver++
		c.meta[m] &^= bit(w)
		return c.payload[b+w], true
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
	_, m := c.base(idx)
	return bits.OnesCount64(c.meta[m])
}

// TagsIn returns the valid tags in set idx in way order (instrumentation
// only).
func (c *Cache) TagsIn(idx int) []Tag {
	b, m := c.base(idx)
	var out []Tag
	for v := c.meta[m]; v != 0; v &= v - 1 {
		out = append(out, c.tags[b+bits.TrailingZeros64(v)])
	}
	return out
}

// FlushSet invalidates every line in set idx and resets replacement state.
func (c *Cache) FlushSet(idx int) {
	_, m := c.base(idx)
	c.ver++
	c.meta[m] = 0
	c.r0.resetSet(idx)
	if c.split > 0 {
		c.r1.resetSet(idx)
	}
}

// FlushAll invalidates the whole cache. It clears only the valid masks:
// stale tags and fingerprints are harmless behind a zero mask.
func (c *Cache) FlushAll() {
	c.ver++
	for m := 0; m < len(c.meta); m += c.stride {
		c.meta[m] = 0
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
	c.FlushAll()
	c.rng = rng
}
