package hierarchy

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/clock"
	"repro/internal/defense"
	"repro/internal/memory"
	"repro/internal/slicehash"
	"repro/internal/tenant"
	"repro/internal/xrand"
)

// noiseOwner is the payload marking SF entries installed by background
// tenants; no simulated core holds their private copies. Config.Validate
// keeps every core ID below it.
const noiseOwner = 0xff

// sharers is an LLC line's payload: the cores that may hold private
// copies of it, a and b, encoded (a+1) | (b+1)<<8. The payload 0 names
// none. Core IDs stay below noiseOwner (Config.Validate), so each fits
// its byte.
func sharers(a, b int) uint16 { return uint16(a+1) | uint16(b+1)<<8 }

// SetID identifies one LLC/SF set (slice plus in-slice index). The SF and
// LLC share the same mapping, so a SetID addresses both structures.
type SetID struct {
	Slice int
	Index int
}

// String formats the set as "slice:index".
func (s SetID) String() string { return fmt.Sprintf("%d:%d", s.Slice, s.Index) }

// core bundles one core's private caches.
type core struct {
	l1 *cache.Cache
	l2 *cache.Cache
}

// Host simulates one physical machine: memory, hierarchy, clock, noise.
type Host struct {
	cfg  Config
	clk  *clock.Clock
	mem  *memory.Host
	hash *slicehash.Hash

	cores []core
	llc   []*cache.Cache // per slice
	sf    []*cache.Cache // per slice

	rng      *xrand.Rand // simulator-internal randomness (noise, jitter)
	noiseSeq uint64
	lastSync []clock.Cycles // per (slice, index): last noise sync time
	tenants  []tenantState  // background workload models, in spec order

	// def is the LLC countermeasure model (nil = undefended);
	// defSplit caches its way-partition boundary (0 = none) and
	// defHooks which per-access hooks the model actually needs, both
	// resolved once at build time so the access path skips virtual
	// calls that are guaranteed identities/no-ops.
	def      defense.Model
	defSplit int
	defHooks defense.Hooks

	sched eventQueue // scheduled external (victim) accesses

	// jit is the scratch buffer of an open batch's deferred jitter
	// draws (jitter.go). It is empty between batches and keeps its
	// capacity across Reset.
	jit []jitterDraw

	// quietHost says whether the host may replay quiet batches and
	// quiet is the memo of the batch it may replay (quiet.go).
	quietHost bool
	quiet     quietMemo
	settle    quietSettle
	stepCuts  stepCuts

	// Statistics for instrumentation and tests.
	NoiseEvents uint64
	Accesses    uint64
}

// tenantState pairs one background tenant model with its per-access
// LLC-install probability. For memoryless (poisson) models the
// per-cycle rate is captured at build time so the sync loop can draw
// the window count directly from the host rng — same expression, same
// draw — without an interface call.
type tenantState struct {
	model      tenant.Model
	llcProb    float64
	memoryless bool
	perCycle   float64
}

// tenantSeedSalt decorrelates tenant-model seeds from every other use
// of the host seed (memory, clock and policy streams are Split from the
// running rng; tenant seeds must not consume those draws — see
// buildTenants).
const tenantSeedSalt = 0x7e4a_11c0_ffee_51de

// tenantSeed derives tenant i's schedule seed from the host seed
// arithmetically, without consuming host rng draws.
func tenantSeed(seed uint64, i int) uint64 {
	return xrand.Stream(seed^tenantSeedSalt, uint64(i))
}

// buildTenants constructs the host's background workload from the
// config's Tenants specs. It must not draw from the host rng: tenant
// schedules derive from tenantSeed, so adding or removing a tenant never
// shifts the host's own random stream. The config must already be
// validated.
func buildTenants(cfg Config) []tenantState {
	ts := make([]tenantState, len(cfg.Tenants))
	for i, sp := range cfg.Tenants {
		m, err := sp.Build()
		if err != nil {
			panic("hierarchy: " + err.Error()) // unreachable post-Validate
		}
		// LLCProb is literal on a directly constructed Spec (only the
		// Parse/ParseList syntaxes default an absent key to 0.5), so a
		// sparse spec's zero genuinely means "never installs in the LLC".
		ts[i] = compileTenant(m, sp.LLCProb)
	}
	return ts
}

// compileTenant resolves a model's fast-path kind once, at build time.
func compileTenant(m tenant.Model, llcProb float64) tenantState {
	ts := tenantState{model: m, llcProb: llcProb}
	if ml, ok := m.(tenant.Memoryless); ok {
		ts.memoryless = true
		ts.perCycle = ml.PerCycleRate()
	}
	return ts
}

// defenseSeedSalt decorrelates the defense-model seed from every other
// use of the host seed, exactly as tenantSeedSalt does for tenants; the
// seed is derived arithmetically, never drawn from the host rng, so an
// enabled defense cannot shift any other stream.
const defenseSeedSalt = 0x0def_e45e_5eed_c0de

// defenseSeed derives the defense model's key-schedule seed from the
// host seed without consuming host rng draws.
func defenseSeed(seed uint64) uint64 {
	return xrand.Stream(seed^defenseSeedSalt, 0)
}

// buildDefense constructs the host's countermeasure model from the
// config (nil when undefended). Like buildTenants it must not draw
// from the host rng, and the config must already be validated.
func buildDefense(cfg Config) defense.Model {
	if cfg.Defense == nil {
		return nil
	}
	m, err := cfg.Defense.Build()
	if err != nil {
		panic("hierarchy: " + err.Error()) // unreachable post-Validate
	}
	return m
}

// NewHost builds a host from the config with the given seed: it
// allocates the host's structures, then seeds them with Reset(seed). It
// panics on a config whose memory, noise, tenant or defense parameters
// fail Config.Validate.
func NewHost(cfg Config, seed uint64) *Host {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	h := &Host{
		cfg:  cfg,
		mem:  memory.NewHost(cfg.MemoryBytes),
		hash: slicehash.New(cfg.Slices),
		clk:  new(clock.Clock),
	}
	h.def = buildDefense(cfg)
	if h.def != nil {
		h.defSplit = h.def.PartitionWays()
		h.defHooks = defense.HooksOf(h.def)
	}
	h.cores = make([]core, cfg.Cores)
	for i := range h.cores {
		h.cores[i] = core{
			l1: cache.New(cache.Config{Name: fmt.Sprintf("L1[%d]", i), Sets: cfg.L1Sets, Ways: cfg.L1Ways, Policy: cache.TrueLRU}, nil),
			l2: cache.New(cache.Config{Name: fmt.Sprintf("L2[%d]", i), Sets: cfg.L2Sets, Ways: cfg.L2Ways, Policy: cfg.L2Policy}, nil),
		}
	}
	h.llc = make([]*cache.Cache, cfg.Slices)
	h.sf = make([]*cache.Cache, cfg.Slices)
	for s := 0; s < cfg.Slices; s++ {
		// The defense's way partition covers both shared structures: a
		// partition that spared the Snoop Filter would leave the paper's
		// SF attack untouched.
		h.llc[s] = cache.New(cache.Config{Name: fmt.Sprintf("LLC[%d]", s), Sets: cfg.LLCSets, Ways: cfg.LLCWays, Policy: cfg.LLCPolicy, PartitionAt: h.defSplit}, nil)
		h.sf[s] = cache.New(cache.Config{Name: fmt.Sprintf("SF[%d]", s), Sets: cfg.LLCSets, Ways: cfg.SFWays, Policy: cfg.SFPolicy, PartitionAt: h.defSplit}, nil)
	}
	h.lastSync = make([]clock.Cycles, cfg.Slices*cfg.LLCSets)
	h.tenants = buildTenants(cfg)
	h.quietHost = quietHost(cfg, h.defHooks, h.tenants)
	h.stepCuts = newStepCuts(h.tenants, clock.Cycles(cfg.Lat.Issue+cfg.Lat.Drain[L1Hit]))
	h.Reset(seed)
	return h
}

// Reset seeds the host with seed, reusing the cores, LLC/SF slice
// arrays, memory frame pool and noise bookkeeping. It is the one place
// that splits the seed into sub-streams (memory, clock, policies, then
// the tenant and defense seeds), and NewHost ends with it, so a reset
// host replays the exact access-by-access behaviour of a fresh one — the
// property the parallel trial engine's host pools rely on for
// byte-identical reports. Agents and address spaces created before the
// reset are invalidated and must be rebuilt.
func (h *Host) Reset(seed uint64) {
	rng := xrand.New(seed)
	h.rng = rng
	h.mem.Reset(rng.Split())
	h.clk.Reset(h.cfg.TimerJitter, rng.Split())
	polRng := rng.Split()
	for i := range h.cores {
		h.cores[i].l1.Reset(polRng)
		h.cores[i].l2.Reset(polRng)
	}
	for s := range h.llc {
		h.llc[s].Reset(polRng)
		h.sf[s].Reset(polRng)
	}
	for i := range h.lastSync {
		h.lastSync[i] = 0
	}
	for i := range h.tenants {
		h.tenants[i].model.Reset(tenantSeed(seed, i))
	}
	if h.def != nil {
		h.def.Reset(defenseSeed(seed))
	}
	h.noiseSeq = 0
	h.sched.events = h.sched.events[:0]
	h.sched.draining = false
	h.quiet.as = nil
	h.NoiseEvents = 0
	h.Accesses = 0
}

// Config returns the host's configuration.
func (h *Host) Config() Config { return h.cfg }

// Clock returns the shared virtual clock.
func (h *Host) Clock() *clock.Clock { return h.clk }

// NewAddressSpace creates a fresh address space (one per agent/container).
func (h *Host) NewAddressSpace() *memory.AddressSpace {
	return memory.NewAddressSpace(h.mem)
}

// Index helpers.

func (h *Host) l1Index(pa memory.PAddr) int {
	return int(uint64(pa)>>memory.LineBits) & (h.cfg.L1Sets - 1)
}

func (h *Host) l2Index(pa memory.PAddr) int {
	return int(uint64(pa)>>memory.LineBits) & (h.cfg.L2Sets - 1)
}

func (h *Host) llcIndex(pa memory.PAddr) int {
	return int(uint64(pa)>>memory.LineBits) & (h.cfg.LLCSets - 1)
}

// SetOf returns the LLC/SF set of a physical address under the BASE
// (undefended) mapping. It is privileged information used by validation
// code, never by attack code. Under an index-transforming defense the
// per-domain mapping differs; the simulator and domain-aware ground
// truth (Agent.SetOf) use setFor instead.
func (h *Host) SetOf(pa memory.PAddr) SetID {
	return SetID{Slice: h.hash.Slice(pa), Index: h.llcIndex(pa)}
}

// attackerCores is the number of leading cores forming the first
// container's security domain: core 0 (the attacker's main thread) and
// core 1 (its helper), the fixed assignment attack.Session and
// evset.Env use. Every other core belongs to the victim container.
const attackerCores = 2

// domainOf maps a core to its security domain for the defense hooks.
func domainOf(coreID int) defense.Domain {
	if coreID < attackerCores {
		return defense.DomainAttacker
	}
	return defense.DomainVictim
}

// setFor returns the LLC/SF set an access by domain d to pa resolves
// to: the base mapping, transformed by the defense's index hook when
// one is configured (keyed randomization, per-domain skew).
func (h *Host) setFor(d defense.Domain, pa memory.PAddr) SetID {
	s := SetID{Slice: h.hash.Slice(pa), Index: h.llcIndex(pa)}
	if h.defHooks.Index {
		s.Index = h.def.Index(d, uint64(pa.Line()), s.Slice, s.Index, h.cfg.LLCSets)
	}
	return s
}

// region maps a domain to its way-allocation region for the shared
// structures (-1 = unpartitioned: allocate anywhere).
func (h *Host) region(d defense.Domain) int {
	if h.defSplit == 0 {
		return -1
	}
	return h.def.Region(d)
}

// observe filters one attacker-visible timing measurement through the
// defense's measurement hook (quantization, added jitter).
func (h *Host) observe(measured float64) float64 {
	if !h.defHooks.Observe {
		return measured
	}
	return h.def.Observe(h.rng, measured)
}

// latency draws a jittered base latency for the level.
func (h *Host) latency(l Level) float64 {
	if h.cfg.Lat.JitterFrac <= 0 {
		return h.cfg.Lat.Base[l]
	}
	k1, k2 := h.rng.NormDraw()
	return h.cfg.Lat.jittered(l, k1, k2)
}

// --- Noise injection -----------------------------------------------------

// syncNoise applies the background tenant workload to one LLC/SF set,
// covering the window since the set was last synced. Each tenant model
// (internal/tenant; one poisson model on the default config) reports
// how many accesses it performed on the set during the window; each
// access allocates an SF entry (evicting, with back-invalidation,
// whatever the replacement policy selects) and, with the tenant's LLC
// probability, installs a line in the LLC set as well.
func (h *Host) syncNoise(set SetID) {
	slot := set.Slice*h.cfg.LLCSets + set.Index
	now := h.clk.Now()
	last := h.lastSync[slot]
	if now <= last {
		return
	}
	h.lastSync[slot] = now
	if len(h.tenants) == 0 {
		return
	}
	window := float64(now - last)
	for i := range h.tenants {
		bt := &h.tenants[i]
		var n int
		if bt.memoryless {
			// Devirtualized poisson path: the exact expression the model's
			// Accesses would evaluate, drawn from the same rng.
			n = h.rng.Poisson(window * bt.perCycle)
		} else {
			ref := tenant.Set{Slot: slot, Total: h.cfg.Slices * h.cfg.LLCSets}
			n = bt.model.Accesses(h.rng, ref, last, now)
		}
		for j := 0; j < n; j++ {
			h.noiseAccess(set, bt.llcProb)
		}
		h.NoiseEvents += uint64(n)
	}
}

// noiseAccess performs one background tenant access to the set. Tenant
// allocations carry the background domain: under a way partition they
// share the victim region, never displacing attacker-region entries.
func (h *Host) noiseAccess(set SetID, llcProb float64) {
	h.noiseSeq++
	reg := h.region(defense.DomainOther)
	// Noise tags live far above any real frame so they can never collide
	// with attacker or victim lines.
	tag := cache.Tag(1<<62 | h.noiseSeq<<memory.LineBits)
	ev := h.sf[set.Slice].InsertRegion(reg, set.Index, tag, noiseOwner)
	h.handleSFEviction(set, ev)
	if h.rng.Float64() < llcProb {
		lev := h.llc[set.Slice].InsertRegion(reg, set.Index, tag, 0)
		h.handleLLCEviction(lev)
	}
}

// --- Coherence bookkeeping ----------------------------------------------

// handleSFEviction processes the displacement of an SF entry: the owner's
// private copies are back-invalidated and the line may be inserted into
// the LLC by the reuse predictor — into the former owner's own region,
// so a partition is never breached by the predictor.
func (h *Host) handleSFEviction(set SetID, ev cache.Evicted) {
	if !ev.Valid {
		return
	}
	owner := int(ev.Payload)
	reg := h.region(defense.DomainOther)
	if owner != noiseOwner {
		pa := memory.PAddr(ev.Tag)
		h.cores[owner].l1.Remove(h.l1Index(pa), ev.Tag)
		h.cores[owner].l2.Remove(h.l2Index(pa), ev.Tag)
		reg = h.region(domainOf(owner))
	}
	if h.rng.Float64() < h.cfg.ReuseInsertProb {
		lev := h.llc[set.Slice].InsertRegion(reg, set.Index, ev.Tag, 0)
		h.handleLLCEviction(lev)
	}
}

// handleLLCEviction processes the displacement of an LLC (shared) line:
// the LLC is the directory for shared lines, so sharers' private copies
// are back-invalidated.
func (h *Host) handleLLCEviction(ev cache.Evicted) {
	if !ev.Valid || uint64(ev.Tag)&(1<<62) != 0 {
		return // nothing displaced, or a noise line no core holds
	}
	h.invalidateSharers(ev.Tag, ev.Payload, -1)
}

// invalidateSharers removes an LLC line's private copies from every core
// but skip (-1 for none). The line's payload (sharers) names the only
// cores that can hold one: an SF forward records the previous owner and
// the requester, and no other path gives a core a private copy of an
// LLC-resident line — a core that misses privately on it takes the line
// out of the LLC. Reuse-predictor and tenant inserts record none. Silent
// private evictions only shrink the set, so the record is a superset.
// Under an index-transforming defense a line can be LLC-resident in one
// domain's set while another domain's core fills it privately through
// its own set, so those hosts scan every core.
func (h *Host) invalidateSharers(tag cache.Tag, dir uint16, skip int) {
	pa := memory.PAddr(tag)
	l1i, l2i := h.l1Index(pa), h.l2Index(pa)
	if h.defHooks.Index {
		for c := range h.cores {
			if c != skip {
				h.cores[c].l1.Remove(l1i, tag)
				h.cores[c].l2.Remove(l2i, tag)
			}
		}
		return
	}
	for ; dir != 0; dir >>= 8 {
		if c := int(dir&0xff) - 1; c >= 0 && c != skip {
			h.cores[c].l1.Remove(l1i, tag)
			h.cores[c].l2.Remove(l2i, tag)
		}
	}
}

// fillPrivate installs the line in the core's L2 and L1 sets l2i and
// l1i. The L1 and L2 are mutually non-inclusive (as on Skylake-SP): a
// line evicted from one may survive in the other, and clean private
// victims are dropped silently. Crucially, silent private evictions do
// NOT release the SF entry: the Snoop Filter keeps stale entries until
// its own replacement displaces them — the property Prime+Scope's
// construction exploits (repeated passes over a candidate prefix
// cascade reinsertions through the stale entries until the target
// becomes the LRU victim).
//
// The fills skip the presence scan (cache.Fill): every caller has just
// missed on the line in both caches, and only SF/LLC operations and
// back-invalidation removals run between those lookups and this call.
func (c *core) fillPrivate(l1i, l2i int, tag cache.Tag) {
	c.l2.Fill(-1, l2i, tag, 0)
	c.l1.Fill(-1, l1i, tag, 0)
}

// --- The access path ------------------------------------------------------

// accessResult carries the outcome of one state-machine step: the
// level that served the access and the LLC/SF set it resolved to.
type accessResult struct {
	level Level
	set   SetID
}

// accessState performs the cache-state transition of one demand access by
// coreID to physical address pa, without advancing the clock. It returns
// the level the access was served from and the LLC/SF set it resolved
// to. This is the heart of the non-inclusive LLC+SF protocol (paper
// §2.3):
//
//   - L1/L2 hits stay private.
//   - An SF hit (another core owns the line E/M) triggers a cache-to-cache
//     forward: both copies become Shared, the SF entry is freed and the
//     line is installed in the LLC with the two cores as its sharers.
//   - An LLC hit by a core that misses privately takes the line Exclusive:
//     it is removed from the LLC and an SF entry is allocated.
//   - A full miss fetches from DRAM and allocates an SF entry (Exclusive).
func (h *Host) accessState(coreID int, pa memory.PAddr) accessResult {
	h.Accesses++
	tag := cache.Tag(pa.Line())
	c := &h.cores[coreID]
	dom := domainOf(coreID)
	if h.defHooks.Tick {
		// One tick per demand access advances defense epoch state (e.g.
		// the randomize model's rekey counter).
		h.def.Tick()
	}

	// Apply pending background noise and scheduled (victim) accesses to
	// this line's LLC/SF set before the lookups: a back-invalidation that
	// "already happened" in virtual time must be visible even to an
	// otherwise-L1-resident line.
	set := h.setFor(dom, pa)
	h.syncNoise(set)
	h.drainScheduled()

	l1i := h.l1Index(pa)
	if _, hit := c.l1.Lookup(l1i, tag); hit {
		return accessResult{level: L1Hit, set: set}
	}
	l2i := h.l2Index(pa)
	if _, hit := c.l2.Lookup(l2i, tag); hit {
		c.l1.Fill(-1, l1i, tag, 0)
		return accessResult{level: L2Hit, set: set}
	}
	return accessResult{level: h.fetch(coreID, pa, set, false), set: set}
}

// fetch serves coreID's access to pa, resolved to set, beyond its
// private caches: an SF forward, a DRAM refetch through a stale or own
// SF entry, an LLC hit or a full miss (see accessState). Normally the
// core has just missed on the line in its L1 and L2. With drop set
// (sharedLoad) it may instead still hold private copies, which are
// first discarded silently, as dropPrivate does, wherever the directory
// says a copy can be: under the SF entry the core owns, or under an LLC
// line that records the core as a sharer. Nowhere else can one be on a
// host without an index-transforming defense (checkInvariants' rules 2,
// 3 and 5), and removals commute with the lookups in between.
func (h *Host) fetch(coreID int, pa memory.PAddr, set SetID, drop bool) Level {
	tag := cache.Tag(pa.Line())
	c := &h.cores[coreID]
	l1i, l2i := h.l1Index(pa), h.l2Index(pa)
	sf, llc := h.sf[set.Slice], h.llc[set.Slice]
	if owner, hit := sf.Lookup(set.Index, tag); hit {
		if int(owner) != coreID && owner != noiseOwner && h.hasPrivate(int(owner), pa) {
			// Cache-to-cache forward; line transitions E->S: SF entry
			// freed, line installed in the LLC. The previous owner keeps
			// its (now Shared) private copies.
			sf.Remove(set.Index, tag)
			lev := llc.InsertRegion(h.region(domainOf(coreID)), set.Index, tag, sharers(int(owner), coreID))
			h.handleLLCEviction(lev)
			c.fillPrivate(l1i, l2i, tag)
			return SFForward
		}
		if drop && int(owner) == coreID {
			c.l1.Remove(l1i, tag)
			c.l2.Remove(l2i, tag)
		}
		// Stale, own, or noise entry: the snoop misses every private
		// cache, so the line is refetched from DRAM; the SF entry is
		// retained and re-owned by the requester.
		sf.UpdatePayload(set.Index, tag, uint16(coreID))
		c.fillPrivate(l1i, l2i, tag)
		return DRAM
	}

	if dir, hit := llc.Take(set.Index, tag); hit {
		// Shared line taken Exclusive: removed from the LLC, SF entry
		// allocated, and every other core's (Shared) private copy
		// invalidated — a line cannot be Exclusive in one core while
		// cached elsewhere. A dropping core invalidates its own copy
		// with the others.
		skip := coreID
		if drop {
			skip = -1
		}
		h.invalidateSharers(tag, dir, skip)
		// The SF lookup above missed and nothing since inserts into the
		// SF, so the allocation skips the presence scan.
		ev := sf.Fill(h.region(domainOf(coreID)), set.Index, tag, uint16(coreID))
		h.handleSFEviction(set, ev)
		c.fillPrivate(l1i, l2i, tag)
		return LLCHit
	}

	// Full miss: DRAM fetch, allocate SF entry (Exclusive).
	ev := sf.Fill(h.region(domainOf(coreID)), set.Index, tag, uint16(coreID))
	h.handleSFEviction(set, ev)
	c.fillPrivate(l1i, l2i, tag)
	return DRAM
}

// sharedLoad is one line of the two-thread shared load
// (Agent.LoadSharedAll) as one transition: main's private copies are
// dropped (dropPrivate), main accesses the line, then the helper does,
// with no clock advance in between. It returns the level that served
// main's access. The state, counters and rng draws equal those of the
// three calls in sequence.
//
// On a host without an index-transforming or ticking defense, with no
// scheduled event due, the step syncs the line's set once and skips
// what the sequence would do for nothing: main's private lookups, which
// miss after the drop; the drop's removals where the directory says
// main holds no copy (fetch); and the helper's set hash, sync, private
// lookups and SF/LLC scans. Whenever main's access leaves the line
// SF-owned by main (an LLC hit, a full miss or a stale or own SF
// entry), the helper's access is certain to be the cache-to-cache
// forward from main: SF-tracked means not LLC-resident (checkInvariants
// rule 4) and held privately by no core but main (rule 3). Any other
// case runs the sequence, or the helper's general access.
func (h *Host) sharedLoad(main, helper int, pa memory.PAddr) Level {
	if h.defHooks.Index || h.defHooks.Tick || main == helper {
		return h.sharedLoadSeq(main, helper, pa)
	}
	set := h.setFor(domainOf(main), pa)
	h.syncNoise(set)
	if h.sched.due(h.clk.Now()) {
		// The sequence's own sync is a no-op at the same clock, and a
		// drop commutes with the sync: both only remove lines.
		return h.sharedLoadSeq(main, helper, pa)
	}
	h.Accesses++
	level := h.fetch(main, pa, set, true)
	if level == SFForward {
		h.accessState(helper, pa)
		return level
	}
	// The helper's forward from main: SF entry touched and freed, the
	// line installed in the LLC, where it is absent, with main and the
	// helper as sharers, and filled into the helper's private caches,
	// where it is absent too.
	h.Accesses++
	tag := cache.Tag(pa.Line())
	h.sf[set.Slice].Take(set.Index, tag)
	lev := h.llc[set.Slice].Fill(h.region(domainOf(helper)), set.Index, tag, sharers(main, helper))
	h.handleLLCEviction(lev)
	h.cores[helper].fillPrivate(h.l1Index(pa), h.l2Index(pa), tag)
	return level
}

// sharedLoadSeq is sharedLoad as the three calls it stands for.
func (h *Host) sharedLoadSeq(main, helper int, pa memory.PAddr) Level {
	h.dropPrivate(main, pa)
	level := h.accessState(main, pa).level
	h.accessState(helper, pa)
	return level
}

// dropPrivate silently discards the core's private copies of a line
// without coherence actions or time cost. It models the portion of an
// access pattern (e.g. Gruss-style dual pointer chase) that displaces a
// line from the local L1/L2 so the next touch transits the LLC; the
// pattern's time cost is charged by the batch access model.
func (h *Host) dropPrivate(coreID int, pa memory.PAddr) {
	tag := cache.Tag(pa.Line())
	c := &h.cores[coreID]
	c.l1.Remove(h.l1Index(pa), tag)
	c.l2.Remove(h.l2Index(pa), tag)
}

// dropL1 silently discards only the core's L1 copy (see dropPrivate).
func (h *Host) dropL1(coreID int, pa memory.PAddr) {
	h.cores[coreID].l1.Remove(h.l1Index(pa), cache.Tag(pa.Line()))
}

// flushLine models clflush by coreID: the line is removed from every
// private cache, from the LLC and from the SF. The shared-structure set
// resolves under the flusher's domain mapping — the only mapping under
// which the flusher's own lines are resident.
func (h *Host) flushLine(coreID int, pa memory.PAddr) {
	tag := cache.Tag(pa.Line())
	l1i, l2i := h.l1Index(pa), h.l2Index(pa)
	for c := range h.cores {
		h.cores[c].l1.Remove(l1i, tag)
		h.cores[c].l2.Remove(l2i, tag)
	}
	set := h.setFor(domainOf(coreID), pa)
	h.llc[set.Slice].Remove(set.Index, tag)
	h.sf[set.Slice].Remove(set.Index, tag)
}

// --- Privileged inspection (validation & tests only) ----------------------

// InSF reports whether the line is SF-tracked (privileged). Under an
// index-transforming defense (randomize, scatter) a line lives
// wherever the touching domain's mapping placed it, so the check
// covers both container mappings; callers that know the accessing
// domain use InSFDomain directly.
func (h *Host) InSF(pa memory.PAddr) bool {
	if h.def == nil {
		return h.sfContains(h.SetOf(pa), pa)
	}
	return h.InSFDomain(defense.DomainAttacker, pa) || h.InSFDomain(defense.DomainVictim, pa)
}

// InSFDomain reports whether the line is SF-tracked under domain d's
// index mapping — the resolution that is correct on a host with an
// index-transforming defense, for the domain that accessed the line.
func (h *Host) InSFDomain(d defense.Domain, pa memory.PAddr) bool {
	return h.sfContains(h.setFor(d, pa), pa)
}

func (h *Host) sfContains(set SetID, pa memory.PAddr) bool {
	return h.sf[set.Slice].Contains(set.Index, cache.Tag(pa.Line()))
}

// InLLC reports whether the line is LLC-resident (privileged). Like
// InSF it covers both container mappings under an index-transforming
// defense, so it stays truthful on every host.
func (h *Host) InLLC(pa memory.PAddr) bool {
	if h.def == nil {
		return h.llcContains(h.SetOf(pa), pa)
	}
	return h.InLLCDomain(defense.DomainAttacker, pa) || h.InLLCDomain(defense.DomainVictim, pa)
}

// InLLCDomain reports whether the line is LLC-resident under domain d's
// index mapping (see InSFDomain).
func (h *Host) InLLCDomain(d defense.Domain, pa memory.PAddr) bool {
	return h.llcContains(h.setFor(d, pa), pa)
}

func (h *Host) llcContains(set SetID, pa memory.PAddr) bool {
	return h.llc[set.Slice].Contains(set.Index, cache.Tag(pa.Line()))
}

// hasPrivate reports whether the core's L1 or L2 holds the line (used by
// the snoop path to detect stale SF entries).
func (h *Host) hasPrivate(coreID int, pa memory.PAddr) bool {
	tag := cache.Tag(pa.Line())
	c := &h.cores[coreID]
	return c.l1.Contains(h.l1Index(pa), tag) || c.l2.Contains(h.l2Index(pa), tag)
}

// InPrivate reports whether the line is in the core's L1 or L2
// (privileged).
func (h *Host) InPrivate(coreID int, pa memory.PAddr) bool {
	return h.hasPrivate(coreID, pa)
}
