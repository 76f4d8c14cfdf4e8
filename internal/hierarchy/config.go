// Package hierarchy simulates the multi-core cache hierarchy of Intel
// server CPUs with a non-inclusive, sliced LLC and a Snoop Filter (SF),
// following the microarchitecture described in the paper (§2.3, Table 2):
//
//   - Private L1 and L2 per core.
//   - A sliced, non-inclusive LLC; physical line addresses are hashed to a
//     slice by a complex hash (internal/slicehash).
//   - A sliced Snoop Filter with the same set mapping as the LLC. Lines in
//     Exclusive/Modified state in a private cache are tracked by the SF
//     ("private" lines); lines in Shared state are resident in (and
//     tracked by) the LLC ("shared" lines).
//   - Evicting an SF entry back-invalidates the private copies; the
//     evicted line may be inserted into the LLC according to a reuse
//     predictor. L2 victims may likewise be inserted into the LLC.
//
// Timing is modelled in virtual cycles on a shared clock (internal/clock):
// every access advances the clock by a jittered latency, and overlapped
// ("parallel") accesses are charged an MLP-aware cost instead of the sum
// of their latencies. Background tenant interference is injected lazily
// per LLC/SF set by the workload models of internal/tenant declared in
// Config.Tenants — one flat Poisson tenant by default (§4.3 / Figure 2
// of the paper), or structured burst/stream/hotset/churn tenants.
// Optionally one LLC countermeasure model (internal/defense) hooks the
// shared structures via Config.Defense: way-partitioned allocation,
// keyed/per-domain set-index derivation, and quantized or jittered
// attacker-visible timing.
package hierarchy

import (
	"fmt"
	"math"

	"repro/internal/cache"
	"repro/internal/defense"
	"repro/internal/memory"
	"repro/internal/slicehash"
	"repro/internal/tenant"
)

// Level identifies where an access was served from.
type Level int

// Access service levels, fastest to slowest.
const (
	L1Hit Level = iota
	L2Hit
	LLCHit
	SFForward // cache-to-cache transfer via a Snoop Filter hit
	DRAM
)

// String returns the level's conventional name.
func (l Level) String() string {
	switch l {
	case L1Hit:
		return "L1"
	case L2Hit:
		return "L2"
	case LLCHit:
		return "LLC"
	case SFForward:
		return "SF-fwd"
	case DRAM:
		return "DRAM"
	default:
		return "unknown"
	}
}

// Latencies holds the timing model parameters in cycles. Base latencies
// are jittered by a Gaussian with the given relative sigma. Chain values
// are the extra cost of a dependent (pointer-chase) access at each level,
// dominated by page walks for DRAM-sized working sets; Drain values are
// the per-access pipeline cost of an additional overlapped access beyond
// the first (memory-level parallelism); Issue is the front-end cost of
// issuing one overlapped access.
type Latencies struct {
	Base       [5]float64 // indexed by Level
	Chain      [5]float64
	Drain      [5]float64
	Issue      float64
	JitterFrac float64 // sigma as a fraction of the base latency
	Measure    float64 // fixed rdtsc-style measurement overhead per timed op
	Flush      float64 // cost of one clflush
}

// DefaultLatencies returns the timing model calibrated to land in the
// same regime as the paper's 2 GHz Skylake-SP hosts: sequential DRAM
// pointer chases cost ~780 cycles/access while fully overlapped misses
// cost ~27 cycles/access, matching Figure 3's order-of-magnitude gap and
// the absolute TestEviction durations reported in §4.3.
func DefaultLatencies() Latencies {
	return Latencies{
		Base:       [5]float64{4, 14, 44, 70, 280},
		Chain:      [5]float64{2, 6, 12, 15, 500},
		Drain:      [5]float64{1, 3, 10, 12, 25},
		Issue:      2,
		JitterFrac: 0.06,
		Measure:    90,
		Flush:      60,
	}
}

// Config describes one simulated host's cache hierarchy.
type Config struct {
	Name string

	Cores int

	L1Sets, L1Ways int
	L2Sets, L2Ways int
	// Per-slice LLC and SF geometry. The SF shares the LLC's set count,
	// slice count and slice hash (paper §2.3).
	LLCSets, LLCWays int
	SFWays           int
	Slices           int

	L2Policy  cache.PolicyKind
	LLCPolicy cache.PolicyKind
	SFPolicy  cache.PolicyKind

	Lat Latencies

	// ReuseInsertProb is the probability that the reuse predictor inserts
	// an SF or L2 victim into the LLC (paper §2.3 cites a reuse
	// predictor [40, 82]).
	ReuseInsertProb float64

	// Tenants declares the background co-tenant workload
	// (internal/tenant): the paper's flat per-set Poisson rate (§4.3,
	// the default), burst phases, streaming scans, hot-set collisions,
	// serverless churn, or several at once. Empty means a silent host.
	// Note that a non-empty Tenants makes the Config non-comparable
	// (callers that need a map key use Key).
	Tenants []tenant.Spec

	// Defense declares an LLC countermeasure model (internal/defense):
	// way-partitioning between security domains, keyed index
	// randomization or per-domain skew, or quantized probe feedback.
	// Nil (the default) is the undefended host, bit-identical to the
	// pre-defense code paths. Callers that need a map key use Key,
	// which canonicalizes the pointer by value.
	Defense *defense.Spec

	// MemoryBytes sizes the host's physical memory.
	MemoryBytes uint64

	// TimerJitter is the Gaussian sigma (cycles) on timestamp reads.
	TimerJitter float64
}

// Uncontrollable set-index geometry (paper §2.2.1).

// L2IndexBits returns the number of L2 set-index bits.
func (c Config) L2IndexBits() int { return log2(c.L2Sets) }

// LLCIndexBits returns the number of per-slice LLC set-index bits.
func (c Config) LLCIndexBits() int { return log2(c.LLCSets) }

// L2Uncertainty returns U_L2 = 2^(uncontrollable L2 index bits): the
// number of L2 sets a fixed page offset can map to.
func (c Config) L2Uncertainty() int {
	uc := c.L2IndexBits() - (memory.PageBits - memory.LineBits)
	if uc < 0 {
		uc = 0
	}
	return 1 << uc
}

// LLCUncertainty returns U_LLC = 2^(uncontrollable LLC index bits) x
// nslices: the number of LLC/SF sets a fixed page offset can map to.
func (c Config) LLCUncertainty() int {
	uc := c.LLCIndexBits() - (memory.PageBits - memory.LineBits)
	if uc < 0 {
		uc = 0
	}
	return (1 << uc) * c.Slices
}

// SetsAtPageOffset returns the number of distinct LLC/SF sets reachable
// from a single page offset — the PageOffset scenario's set count.
func (c Config) SetsAtPageOffset() int { return c.LLCUncertainty() }

// TotalLLCSets returns the system-wide number of LLC/SF sets — the
// WholeSys scenario's set count (SetsAtPageOffset x 64 line offsets).
func (c Config) TotalLLCSets() int { return c.LLCSets * c.Slices }

func log2(n int) int {
	b := 0
	for 1<<b < n {
		b++
	}
	if 1<<b != n {
		panic("hierarchy: geometry must be a power of two")
	}
	return b
}

// Noise rate presets: the paper's measured background rates in
// accesses per millisecond per set (§4.3).
const (
	// CloudRunNoiseRate is the Cloud Run background rate.
	CloudRunNoiseRate = 11.5
	// QuiescentNoiseRate is the quiescent local machine's rate.
	QuiescentNoiseRate = 0.29
)

// SkylakeSP returns the hierarchy of an Intel Skylake-SP server part
// (Table 2 in the paper) with the given number of LLC/SF slices: 28 for
// the Cloud Run Xeon Platinum 8173M, 22 for the local Xeon Gold 6152.
func SkylakeSP(slices int) Config {
	return Config{
		Name:   "Skylake-SP",
		Cores:  slices,
		L1Sets: 64, L1Ways: 8,
		L2Sets: 1024, L2Ways: 16,
		LLCSets: 2048, LLCWays: 11,
		SFWays: 12,
		Slices: slices,
		// All levels default to age-ordered (LRU) replacement so that a
		// single traversal of W congruent lines reliably evicts — the
		// regime the paper's single-pass TestEviction assumes (real
		// attack code defeats PLRU/QLRU approximations with repeated
		// traversal patterns, which the batch cost model subsumes). The
		// scan-resistant Tree-PLRU, QLRU and SRRIP models remain
		// available for the replacement-policy ablation (§6.1 claims
		// Parallel Probing is policy-agnostic).
		L2Policy:        cache.TrueLRU,
		LLCPolicy:       cache.TrueLRU,
		SFPolicy:        cache.TrueLRU,
		Lat:             DefaultLatencies(),
		ReuseInsertProb: 0.3,
		// The default background is one quiescent poisson tenant; each
		// of its accesses installs an LLC line (tenant shared data, L2
		// victims) with probability 0.5 besides its SF allocation.
		Tenants:     []tenant.Spec{{Model: "poisson", Rate: QuiescentNoiseRate, LLCProb: 0.5}},
		MemoryBytes: 8 << 30,
		TimerJitter: 2,
	}
}

// IceLakeSP returns the hierarchy of an Ice Lake-SP part (§5.3.2): 20-way
// L2 and 16-way SF; the local machine used in the paper (Xeon Gold 5320)
// has 26 slices.
func IceLakeSP(slices int) Config {
	c := SkylakeSP(slices)
	c.Name = "Ice Lake-SP"
	c.L2Sets, c.L2Ways = 1024, 20
	c.LLCSets, c.LLCWays = 2048, 12
	c.SFWays = 16
	return c
}

// Scaled returns a reduced geometry used by unit tests and fast benches:
// the same structure and code paths as Skylake-SP, with fewer slices and
// smaller slice arrays so whole-system sweeps stay cheap.
func Scaled(slices int) Config {
	c := SkylakeSP(slices)
	c.Name = "Scaled-SKX"
	c.Cores = maxInt(4, slices)
	// The L2 associativity must exceed the SF's by a comfortable margin,
	// as on real parts (16 vs 12): the SF eviction test keeps Ta plus a
	// whole SF eviction set resident in one L2 set.
	c.L2Sets, c.L2Ways = 256, 12
	c.LLCSets, c.LLCWays = 512, 7
	c.SFWays = 8
	c.MemoryBytes = 1 << 30
	return c
}

// WithCloudNoise returns a copy of the config with Cloud Run noise.
func (c Config) WithCloudNoise() Config { return c.WithNoiseRate(CloudRunNoiseRate) }

// WithQuiescentNoise returns a copy with quiescent-local noise.
func (c Config) WithQuiescentNoise() Config { return c.WithNoiseRate(QuiescentNoiseRate) }

// WithNoiseRate returns a copy whose background workload exerts the
// given mean pressure, in accesses per millisecond per set (the
// paper's unit). A tenant-less config gains one poisson tenant at that
// rate; a lone tenant takes the rate exactly; several tenants have
// every Rate rescaled so their TOTAL mean matches perMs while the mix
// between them is preserved — so noise-rate axes (the abl-noise
// runner, construction equivalent-noise scaling) keep sweeping
// intensity under a -tenants override instead of becoming silently
// inert.
func (c Config) WithNoiseRate(perMs float64) Config {
	switch len(c.Tenants) {
	case 0:
		return c.WithTenants(tenant.Spec{Model: "poisson", Rate: perMs, LLCProb: 0.5})
	case 1:
		// Set, not rescaled: Rate*(perMs/Rate) can miss perMs by an ulp.
		sp := c.Tenants[0]
		sp.Rate = perMs
		return c.WithTenants(sp)
	}
	total := 0.0
	for _, sp := range c.Tenants {
		total += sp.Rate
	}
	scaled := append([]tenant.Spec(nil), c.Tenants...)
	for i := range scaled {
		if total > 0 {
			scaled[i].Rate *= perMs / total
		} else {
			// All-zero declared rates: split the requested total evenly.
			scaled[i].Rate = perMs / float64(len(scaled))
		}
	}
	c.Tenants = scaled
	return c
}

// WithTenants returns a copy whose background workload is the given
// tenant specs, replacing the previous ones. The specs slice is
// copied, so later mutation of the arguments cannot alias into the
// config.
func (c Config) WithTenants(specs ...tenant.Spec) Config {
	c.Tenants = append([]tenant.Spec(nil), specs...)
	return c
}

// WithDefense returns a copy defended by the given countermeasure spec
// (replacing any previous defense). The spec is copied, so later
// mutation of the argument cannot alias into the config.
func (c Config) WithDefense(sp defense.Spec) Config {
	c.Defense = &sp
	return c
}

// Validate rejects configurations whose geometry, memory, noise,
// latency, tenant or defense parameters are out of range — a core count
// outside [1, 255) (core IDs must stay below the background tenants' SF
// owner, 0xff, and fit an LLC line's sharer byte), no slices, a set
// count that is not a power of two (the index helpers mask with Sets-1, so
// such a count would silently leave sets unused), an associativity
// outside [1, cache.MaxWays], a memory size below one page or above
// memory.MaxFrames frames, a negative rate, a probability outside
// [0, 1], a negative or non-finite latency (the batch-max jitter bounds
// rely on it), a malformed tenant spec, or a way partition that leaves
// a shared structure without ways on one side — before they can
// silently produce a nonsense host. NewHost calls Validate and panics
// on error; callers that assemble configs from external input (sweep
// specs, CLI flags) call it directly for a graceful error.
func (c Config) Validate() error {
	switch {
	case c.Cores < 1 || c.Cores >= noiseOwner:
		return fmt.Errorf("hierarchy: core count %d outside [1, %d)", c.Cores, noiseOwner)
	case c.Slices < 1:
		return fmt.Errorf("hierarchy: slice count %d is below 1", c.Slices)
	case c.Slices > slicehash.MaxSlices:
		return fmt.Errorf("hierarchy: slice count %d exceeds %d", c.Slices, slicehash.MaxSlices)
	}
	for _, g := range []struct {
		name       string
		sets, ways int
	}{{"L1", c.L1Sets, c.L1Ways}, {"L2", c.L2Sets, c.L2Ways}, {"LLC", c.LLCSets, c.LLCWays}, {"SF", c.LLCSets, c.SFWays}} {
		if g.sets <= 0 || g.sets&(g.sets-1) != 0 {
			return fmt.Errorf("hierarchy: %s set count %d is not a power of two", g.name, g.sets)
		}
		if g.ways < 1 || g.ways > cache.MaxWays {
			return fmt.Errorf("hierarchy: %s ways %d outside [1, %d]", g.name, g.ways, cache.MaxWays)
		}
	}
	switch {
	case c.MemoryBytes < memory.PageSize:
		return fmt.Errorf("hierarchy: MemoryBytes %d is below one %d B page", c.MemoryBytes, memory.PageSize)
	case c.MemoryBytes/memory.PageSize > memory.MaxFrames:
		return fmt.Errorf("hierarchy: MemoryBytes %d exceeds %d frames", c.MemoryBytes, uint64(memory.MaxFrames))
	case c.ReuseInsertProb < 0 || c.ReuseInsertProb > 1:
		return fmt.Errorf("hierarchy: ReuseInsertProb %g outside [0, 1]", c.ReuseInsertProb)
	case c.TimerJitter < 0:
		return fmt.Errorf("hierarchy: negative TimerJitter %g", c.TimerJitter)
	case !(c.Lat.JitterFrac >= 0 && c.Lat.JitterFrac <= math.MaxFloat64):
		return fmt.Errorf("hierarchy: latency JitterFrac %g must be finite and non-negative", c.Lat.JitterFrac)
	}
	for l, b := range c.Lat.Base {
		if !(b >= 0 && b <= math.MaxFloat64) {
			return fmt.Errorf("hierarchy: %v base latency %g must be finite and non-negative", Level(l), b)
		}
	}
	for i, sp := range c.Tenants {
		if err := sp.Validate(); err != nil {
			return fmt.Errorf("hierarchy: tenant %d: %w", i, err)
		}
	}
	if c.Defense != nil {
		if err := c.Defense.Validate(); err != nil {
			return fmt.Errorf("hierarchy: %w", err)
		}
		// A way partition must leave at least one way per region in BOTH
		// partitioned structures (the LLC slice is one way narrower than
		// the SF on every shipped geometry, so it binds first).
		if pw := c.Defense.PartitionWays(); pw > 0 {
			if pw >= c.LLCWays {
				return fmt.Errorf("hierarchy: defense partition ways %d must stay below LLCWays %d", pw, c.LLCWays)
			}
			if pw >= c.SFWays {
				return fmt.Errorf("hierarchy: defense partition ways %d must stay below SFWays %d", pw, c.SFWays)
			}
		}
	}
	return nil
}

// Key returns a deterministic string identity for the config, built
// from field VALUES only. Config carries a slice field (Tenants) and a
// pointer field (Defense), so it cannot itself be a map key; the trial
// engine's host pools key on this instead.
//
// The %+v rendering covers every present AND future field
// automatically (slices print their elements, and tenant.Spec's
// Stringer renders each spec canonically) — EXCEPT pointer fields,
// which %+v would print by address, making every equal config look
// distinct and silently defeating host-pool reuse. Defense is
// therefore nil'ed out of the rendered copy and appended through its
// spec's canonical String form; any future pointer field must get the
// same treatment.
func (c Config) Key() string {
	v := c
	v.Defense = nil
	if c.Defense == nil {
		return fmt.Sprintf("%+v", v)
	}
	return fmt.Sprintf("%+v|defense=%s", v, c.Defense.String())
}

// WithSharedPolicy returns a copy whose shared structures (LLC and SF)
// use the given replacement policy. The private L2 keeps its configured
// policy: the paper's §6.1 robustness claim concerns the shared levels,
// whose policy a cross-tenant attacker cannot know.
func (c Config) WithSharedPolicy(k cache.PolicyKind) Config {
	c.LLCPolicy = k
	c.SFPolicy = k
	return c
}

// WithSFAssociativity returns a copy with the given Snoop Filter
// associativity; the LLC slice associativity follows one below it,
// mirroring the 12/11 (Skylake-SP) and 8/7 (Scaled) relationships of the
// shipped geometries. It panics when the requested associativity leaves
// no room under the L2's: the SF eviction test keeps Ta plus a whole SF
// eviction set resident in one L2 set, so SFWays must stay comfortably
// below L2Ways (as on real parts).
func (c Config) WithSFAssociativity(sfWays int) Config {
	if sfWays < 2 {
		panic(fmt.Sprintf("hierarchy: SF associativity %d below minimum 2", sfWays))
	}
	if sfWays >= c.L2Ways {
		panic(fmt.Sprintf("hierarchy: SF associativity %d must stay below L2Ways %d", sfWays, c.L2Ways))
	}
	c.SFWays = sfWays
	c.LLCWays = sfWays - 1
	return c
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
