package hierarchy

import (
	"container/heap"
	"math"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/cache/model"
	"repro/internal/clock"
	"repro/internal/defense"
	"repro/internal/memory"
	"repro/internal/tenant"
	"repro/internal/xrand"
)

// refHost is the reference oracle for Host: a slow, obviously-correct
// hierarchy kept deliberately naive so its behaviour is easy to audit
// against the paper's protocol (§2.3) by eye. Every part that the fast
// host optimises is replaced by its plain definition:
//
//   - caches are internal/cache/model arrays (one heap object per set,
//     interface-dispatched policies);
//   - the slice hash is the parity loop over the hash's XOR masks;
//   - background counts are Knuth's Poisson with math.Exp, no memo and
//     no shortcut;
//   - every access's jitter is drawn and evaluated where it happens, and
//     a batch keeps a running max (exactBatchMax's loop);
//   - per-set sync times live in a map and scheduled events in a
//     container/heap queue;
//   - every defense hook is called on every access, whether or not the
//     model needs it;
//   - an LLC eviction or LLC hit back-invalidates every core, not just
//     the sharers the line's payload records. It records the same pair
//     at the SF forward, so payloads still compare exactly, and a
//     sharer the host's directory misses shows as a private copy the
//     model no longer holds.
//
// It draws from its own rng in the order the protocol fixes, so a Host
// and a refHost built from the same config and seed must agree on every
// result, every cache set and the next random draw after any sequence
// of operations. FuzzHostMatchesModel enforces that.
type refHost struct {
	cfg  Config
	rng  *xrand.Rand
	now  clock.Cycles
	hash refSliceHash

	l1, l2  []*model.Cache // per core
	llc, sf []*model.Cache // per slice

	lastSync map[int]clock.Cycles // flat set slot -> last noise sync
	tenants  []refTenant
	def      defense.Model

	sched    refQueue
	draining bool

	noiseSeq    uint64
	NoiseEvents uint64
	Accesses    uint64
}

// refTenant is one background tenant. A poisson tenant's count is drawn
// by knuthPoisson at the spec's per-cycle rate; every other family
// answers through its Model.
type refTenant struct {
	model    tenant.Model
	poisson  bool
	perCycle float64
	llcProb  float64
}

// newRefHost builds the reference for NewHost(cfg, seed). The host rng
// is split in NewHost's order: memory (unused here: callers pass
// physical addresses), clock, then the shared policy stream.
func newRefHost(cfg Config, seed uint64) *refHost {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	rng := xrand.New(seed)
	r := &refHost{cfg: cfg, rng: rng, hash: newRefSliceHash(cfg.Slices), lastSync: map[int]clock.Cycles{}}
	rng.Split() // memory
	split := 0
	if cfg.Defense != nil {
		m, err := cfg.Defense.Build()
		if err != nil {
			panic(err.Error())
		}
		m.Reset(defenseSeed(seed))
		r.def = m
		split = m.PartitionWays()
	}
	rng.Split() // clock
	polRng := rng.Split()
	for i := 0; i < cfg.Cores; i++ {
		r.l1 = append(r.l1, model.New(cache.Config{Sets: cfg.L1Sets, Ways: cfg.L1Ways, Policy: cache.TrueLRU}, polRng))
		r.l2 = append(r.l2, model.New(cache.Config{Sets: cfg.L2Sets, Ways: cfg.L2Ways, Policy: cfg.L2Policy}, polRng))
	}
	for s := 0; s < cfg.Slices; s++ {
		r.llc = append(r.llc, model.New(cache.Config{Sets: cfg.LLCSets, Ways: cfg.LLCWays, Policy: cfg.LLCPolicy, PartitionAt: split}, polRng))
		r.sf = append(r.sf, model.New(cache.Config{Sets: cfg.LLCSets, Ways: cfg.SFWays, Policy: cfg.SFPolicy, PartitionAt: split}, polRng))
	}
	for i, sp := range cfg.Tenants {
		m, err := sp.Build()
		if err != nil {
			panic(err.Error())
		}
		m.Reset(tenantSeed(seed, i))
		rt := refTenant{model: m, llcProb: sp.LLCProb}
		if sp.Model == "poisson" {
			rt.poisson, rt.perCycle = true, sp.Rate/tenant.CyclesPerMs
		}
		r.tenants = append(r.tenants, rt)
	}
	return r
}

// refSliceHash is slicehash.Hash by its definition: slicehash.New's
// construction replayed, and a parity per XOR mask.
type refSliceHash struct {
	masks  []uint64
	lookup []uint8 // nil for power-of-two counts
}

func newRefSliceHash(n int) refSliceHash {
	rng := xrand.New(0x51CEA5 ^ uint64(n)*0x9e3779b97f4a7c15)
	nbits := 0
	for 1<<nbits < n {
		nbits++
	}
	mask := func() uint64 {
		for {
			m := rng.Uint64() & ((1<<46 - 1) &^ (1<<memory.LineBits - 1))
			if m>>memory.PageBits != 0 {
				return m
			}
		}
	}
	var h refSliceHash
	if 1<<nbits == n {
		for i := 0; i < nbits; i++ {
			h.masks = append(h.masks, mask())
		}
		return h
	}
	for i := 0; i < 12; i++ {
		h.masks = append(h.masks, mask())
	}
	h.lookup = make([]uint8, 1<<12)
	for i := range h.lookup {
		h.lookup[i] = uint8(i % n)
	}
	rng.Shuffle(len(h.lookup), func(i, j int) { h.lookup[i], h.lookup[j] = h.lookup[j], h.lookup[i] })
	return h
}

func (h refSliceHash) slice(pa memory.PAddr) int {
	line := uint64(pa.Line())
	idx := 0
	for i, m := range h.masks {
		idx |= (bits.OnesCount64(line&m) & 1) << i
	}
	if h.lookup == nil {
		return idx
	}
	return int(h.lookup[idx])
}

// knuthPoisson is xrand.Poisson by its definition: Knuth's product of
// uniforms against math.Exp(-mean), and the normal approximation above
// a mean of 64.
func knuthPoisson(rng *xrand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 64 {
		v := rng.Norm(mean, math.Sqrt(mean))
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// refQueue is the scheduled-event queue through container/heap, the
// stdlib ordering eventQueue replicates.
type refQueue []Event

func (q refQueue) Len() int            { return len(q) }
func (q refQueue) Less(i, j int) bool  { return q[i].Time < q[j].Time }
func (q refQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x interface{}) { *q = append(*q, x.(Event)) }
func (q *refQueue) Pop() interface{} {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

func (r *refHost) l1Index(pa memory.PAddr) int { return int(pa>>memory.LineBits) % r.cfg.L1Sets }
func (r *refHost) l2Index(pa memory.PAddr) int { return int(pa>>memory.LineBits) % r.cfg.L2Sets }

// setFor resolves the LLC/SF set of domain d's access to pa: the slice
// hash and the low line bits, then the defense's index hook.
func (r *refHost) setFor(d defense.Domain, pa memory.PAddr) SetID {
	s := SetID{Slice: r.hash.slice(pa), Index: int(pa>>memory.LineBits) % r.cfg.LLCSets}
	if r.def != nil {
		s.Index = r.def.Index(d, uint64(pa.Line()), s.Slice, s.Index, r.cfg.LLCSets)
	}
	return s
}

// region is domain d's allocation region in the shared structures, -1
// when they are not way-partitioned.
func (r *refHost) region(d defense.Domain) int {
	if r.def == nil || r.def.PartitionWays() == 0 {
		return -1
	}
	return r.def.Region(d)
}

func (r *refHost) observe(measured float64) float64 {
	if r.def == nil {
		return measured
	}
	return r.def.Observe(r.rng, measured)
}

// latency is one access's jittered latency, drawn at the access.
func (r *refHost) latency(l Level) float64 {
	base := r.cfg.Lat.Base[l]
	if r.cfg.Lat.JitterFrac <= 0 {
		return base
	}
	v := r.rng.Norm(base, base*r.cfg.Lat.JitterFrac)
	if v < 1 {
		v = 1
	}
	return v
}

// syncNoise replays the background accesses every tenant made to the
// set since it was last synced.
func (r *refHost) syncNoise(set SetID) {
	slot := set.Slice*r.cfg.LLCSets + set.Index
	last := r.lastSync[slot]
	if r.now <= last {
		return
	}
	r.lastSync[slot] = r.now
	for _, bt := range r.tenants {
		var n int
		if bt.poisson {
			n = knuthPoisson(r.rng, float64(r.now-last)*bt.perCycle)
		} else {
			n = bt.model.Accesses(r.rng, tenant.Set{Slot: slot, Total: r.cfg.Slices * r.cfg.LLCSets}, last, r.now)
		}
		for j := 0; j < n; j++ {
			// One tenant access: an SF allocation in the background
			// domain's region and, with the tenant's probability, an
			// LLC line too.
			r.noiseSeq++
			tag := cache.Tag(1<<62 | r.noiseSeq<<memory.LineBits)
			reg := r.region(defense.DomainOther)
			r.sfEvicted(set, r.sf[set.Slice].InsertRegion(reg, set.Index, tag, noiseOwner))
			if r.rng.Float64() < bt.llcProb {
				r.llcEvicted(r.llc[set.Slice].InsertRegion(reg, set.Index, tag, 0))
			}
		}
		r.NoiseEvents += uint64(n)
	}
}

// sfEvicted back-invalidates a displaced SF entry's owner and lets the
// reuse predictor move the line into the owner's LLC region.
func (r *refHost) sfEvicted(set SetID, ev cache.Evicted) {
	if !ev.Valid {
		return
	}
	reg := r.region(defense.DomainOther)
	if ev.Payload != noiseOwner {
		owner := int(ev.Payload)
		pa := memory.PAddr(ev.Tag)
		r.l1[owner].Remove(r.l1Index(pa), ev.Tag)
		r.l2[owner].Remove(r.l2Index(pa), ev.Tag)
		reg = r.region(domainOf(owner))
	}
	if r.rng.Float64() < r.cfg.ReuseInsertProb {
		r.llcEvicted(r.llc[set.Slice].InsertRegion(reg, set.Index, ev.Tag, 0))
	}
}

// llcEvicted back-invalidates every core's copy of a displaced LLC
// line; background lines have no copies.
func (r *refHost) llcEvicted(ev cache.Evicted) {
	if !ev.Valid || uint64(ev.Tag)&(1<<62) != 0 {
		return
	}
	pa := memory.PAddr(ev.Tag)
	for c := range r.l1 {
		r.l1[c].Remove(r.l1Index(pa), ev.Tag)
		r.l2[c].Remove(r.l2Index(pa), ev.Tag)
	}
}

func (r *refHost) fillPrivate(core int, pa memory.PAddr) {
	tag := cache.Tag(pa.Line())
	r.l2[core].Insert(r.l2Index(pa), tag, 0)
	r.l1[core].Insert(r.l1Index(pa), tag, 0)
}

func (r *refHost) dropPrivate(core int, pa memory.PAddr) {
	tag := cache.Tag(pa.Line())
	r.l1[core].Remove(r.l1Index(pa), tag)
	r.l2[core].Remove(r.l2Index(pa), tag)
}

func (r *refHost) hasPrivate(core int, pa memory.PAddr) bool {
	tag := cache.Tag(pa.Line())
	return r.l1[core].Contains(r.l1Index(pa), tag) || r.l2[core].Contains(r.l2Index(pa), tag)
}

// access is one demand load's state transition, one branch per rule of
// the non-inclusive LLC + SF protocol.
func (r *refHost) access(core int, pa memory.PAddr) Level {
	r.Accesses++
	tag := cache.Tag(pa.Line())
	dom := domainOf(core)
	if r.def != nil {
		r.def.Tick()
	}
	set := r.setFor(dom, pa)
	r.syncNoise(set)
	r.drain()
	sf, llc := r.sf[set.Slice], r.llc[set.Slice]

	// Private hits stay private; an L2 hit refills the L1.
	if _, hit := r.l1[core].Lookup(r.l1Index(pa), tag); hit {
		return L1Hit
	}
	if _, hit := r.l2[core].Lookup(r.l2Index(pa), tag); hit {
		r.l1[core].Insert(r.l1Index(pa), tag, 0)
		return L2Hit
	}
	if owner, hit := sf.Lookup(set.Index, tag); hit {
		// SF hit on another core's live private copy: forward, E -> S,
		// the line moves from the SF into the LLC.
		if int(owner) != core && owner != noiseOwner && r.hasPrivate(int(owner), pa) {
			sf.Remove(set.Index, tag)
			r.llcEvicted(llc.InsertRegion(r.region(dom), set.Index, tag, sharers(int(owner), core)))
			r.fillPrivate(core, pa)
			return SFForward
		}
		// Stale, own or background entry: DRAM refetch, entry re-owned.
		sf.UpdatePayload(set.Index, tag, uint16(core))
		r.fillPrivate(core, pa)
		return DRAM
	}
	if _, hit := llc.Lookup(set.Index, tag); hit {
		// Shared line taken Exclusive: out of the LLC, other copies
		// invalidated, tracked by the SF.
		llc.Remove(set.Index, tag)
		for c := range r.l1 {
			if c != core {
				r.dropPrivate(c, pa)
			}
		}
		r.sfEvicted(set, sf.InsertRegion(r.region(dom), set.Index, tag, uint16(core)))
		r.fillPrivate(core, pa)
		return LLCHit
	}
	// Full miss: DRAM fetch, Exclusive, tracked by the SF.
	r.sfEvicted(set, sf.InsertRegion(r.region(dom), set.Index, tag, uint16(core)))
	r.fillPrivate(core, pa)
	return DRAM
}

// drain applies every scheduled event that is due, without recursion.
func (r *refHost) drain() {
	if r.draining {
		return
	}
	r.draining = true
	for len(r.sched) > 0 && r.sched[0].Time <= r.now {
		e := heap.Pop(&r.sched).(Event)
		if e.Refetch {
			r.dropPrivate(e.Core, e.PA)
		}
		r.access(e.Core, e.PA)
		if e.Done != nil {
			e.Done(e.Time)
		}
	}
	r.draining = false
}

// The agent-level operations, on physical addresses.

func (r *refHost) Access(core int, pa memory.PAddr) (clock.Cycles, Level) {
	l := r.access(core, pa)
	lat := clock.Cycles(r.latency(l))
	r.now += lat
	return lat, l
}

func (r *refHost) TimedAccess(core int, pa memory.PAddr) (clock.Cycles, Level) {
	lat, l := r.Access(core, pa)
	measured := float64(lat) + r.cfg.Lat.Measure
	r.now += clock.Cycles(r.cfg.Lat.Measure)
	if j := r.cfg.TimerJitter; j > 0 {
		measured = r.rng.Norm(measured, j)
		if measured < 1 {
			measured = 1
		}
	}
	return clock.Cycles(r.observe(measured)), l
}

func (r *refHost) AccessSeq(core int, pas []memory.PAddr) clock.Cycles {
	var total clock.Cycles
	for _, pa := range pas {
		l := r.access(core, pa)
		lat := clock.Cycles(r.latency(l) + r.cfg.Lat.Chain[l])
		r.now += lat
		total += lat
	}
	return total
}

func (r *refHost) AccessParallel(core int, pas []memory.PAddr) (clock.Cycles, int) {
	if len(pas) == 0 {
		return 0, 0
	}
	lat := &r.cfg.Lat
	total := lat.Issue * float64(len(pas))
	maxBase, misses := 0.0, 0
	for i, pa := range pas {
		l := r.access(core, pa)
		if v := r.latency(l); v > maxBase {
			maxBase = v
		}
		if i > 0 {
			total += lat.Drain[l]
		}
		if l > L2Hit {
			misses++
		}
		r.now += clock.Cycles(lat.Issue + lat.Drain[l])
	}
	total += maxBase
	r.now += clock.Cycles(maxBase)
	return clock.Cycles(r.observe(total)), misses
}

func (r *refHost) LoadSharedAll(core, helper int, pas []memory.PAddr) clock.Cycles {
	if len(pas) == 0 {
		return 0
	}
	lat := &r.cfg.Lat
	total, maxBase := 0.0, 0.0
	for i, pa := range pas {
		r.dropPrivate(core, pa)
		l := r.access(core, pa)
		r.access(helper, pa)
		if v := r.latency(l); v > maxBase {
			maxBase = v
		}
		step := lat.Issue * 2
		if i > 0 {
			step += lat.Drain[l]
		}
		total += step
		r.now += clock.Cycles(step)
	}
	total += maxBase
	r.now += clock.Cycles(maxBase)
	return clock.Cycles(total)
}

func (r *refHost) Flush(core int, pa memory.PAddr) clock.Cycles {
	tag := cache.Tag(pa.Line())
	for c := range r.l1 {
		r.dropPrivate(c, pa)
	}
	set := r.setFor(domainOf(core), pa)
	r.llc[set.Slice].Remove(set.Index, tag)
	r.sf[set.Slice].Remove(set.Index, tag)
	c := clock.Cycles(r.cfg.Lat.Flush)
	r.now += c
	return c
}

func (r *refHost) Idle(d clock.Cycles) {
	r.now += d
	r.drain()
}

func (r *refHost) Schedule(e Event) { heap.Push(&r.sched, e) }
