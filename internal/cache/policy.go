// Package cache implements generic set-associative cache arrays and the
// replacement policies used by the simulated Skylake-SP / Ice Lake-SP
// cache hierarchy.
//
// The attack algorithms in this repository never look inside these
// structures — they observe only latencies — but the experiments' outcomes
// (eviction-set success rates, Prime+Probe detection rates) emerge from
// the way state modelled here.
//
// The implementation is layout- and dispatch-optimized: tags and
// payloads live in flat arrays indexed by set*ways+way, validity is one
// 64-bit mask per set (so a set has at most MaxWays ways) stored beside
// the set's one-byte tag fingerprints, which let a scan test eight ways
// per word, and the replacement policy is resolved to a small enum at
// construction so the per-access path is a switch instead of an
// interface call. Fill skips
// InsertRegion's presence scan for a caller that has just missed on the
// tag. The reference implementation it must match op-for-op lives in
// internal/cache/model.
package cache

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/xrand"
)

// PolicyKind selects a replacement policy implementation.
type PolicyKind int

// Supported replacement policies. Intel's L1/L2 use Tree-PLRU-like
// schemes; Skylake-SP's LLC uses an adaptive quad-age LRU (QLRU); SRRIP is
// the published academic model closest to observed behaviour. TrueLRU and
// RandomRepl are included for ablations: the paper argues Parallel Probing
// works irrespective of the (possibly unknown) policy (§6.1).
const (
	TrueLRU PolicyKind = iota
	TreePLRU
	SRRIP
	QLRU
	RandomRepl
)

// Policies returns every supported policy kind, in declaration order.
// Sweeps over "all replacement policies" iterate this slice so a newly
// added policy is picked up automatically.
func Policies() []PolicyKind {
	return []PolicyKind{TrueLRU, TreePLRU, SRRIP, QLRU, RandomRepl}
}

// ParsePolicy resolves a policy's conventional name (as printed by
// String, case-insensitively; "PLRU" and "Random" are accepted as
// aliases) back to its kind. It is the inverse of String, used by
// configuration sweeps that name policies declaratively.
func ParsePolicy(name string) (PolicyKind, error) {
	switch strings.ToLower(name) {
	case "lru", "truelru":
		return TrueLRU, nil
	case "tree-plru", "plru", "treeplru":
		return TreePLRU, nil
	case "srrip":
		return SRRIP, nil
	case "qlru":
		return QLRU, nil
	case "random", "randomrepl":
		return RandomRepl, nil
	default:
		return 0, fmt.Errorf("cache: unknown replacement policy %q (want LRU, Tree-PLRU, SRRIP, QLRU or Random)", name)
	}
}

// String returns the policy's conventional name.
func (k PolicyKind) String() string {
	switch k {
	case TrueLRU:
		return "LRU"
	case TreePLRU:
		return "Tree-PLRU"
	case SRRIP:
		return "SRRIP"
	case QLRU:
		return "QLRU"
	case RandomRepl:
		return "Random"
	default:
		return "unknown"
	}
}

// rpolicy is a PolicyKind resolved against a concrete region width: the
// only non-trivial resolution is TreePLRU degrading to true LRU for
// non-power-of-two regions. Resolving once at construction lets every
// per-access call dispatch on a dense enum instead of an interface.
type rpolicy uint8

const (
	rLRU rpolicy = iota
	rPLRU
	rSRRIP
	rQLRU
	rRandom
)

const rripMax = 3

// resolvePolicy maps a configured kind onto the dispatch enum for a
// region of the given width.
func resolvePolicy(kind PolicyKind, ways int) rpolicy {
	switch kind {
	case TrueLRU:
		return rLRU
	case TreePLRU:
		if ways&(ways-1) == 0 {
			return rPLRU
		}
		// Tree-PLRU requires a power-of-two associativity; fall back to
		// true LRU for odd geometries (e.g. the 11-way LLC slice).
		return rLRU
	case SRRIP:
		return rSRRIP
	case QLRU:
		return rQLRU
	case RandomRepl:
		return rRandom
	default:
		panic("cache: unknown policy kind")
	}
}

// metaStride returns the bytes of replacement metadata one set needs for
// the resolved policy over a region of the given width: a recency order
// for LRU (padded, see moveToFront), tree bits for PLRU, one age/RRPV
// byte per way for QLRU/SRRIP, nothing for random replacement.
func metaStride(kind rpolicy, ways int) int {
	switch kind {
	case rLRU:
		if ways <= 8 {
			return 8
		}
		if ways <= 16 {
			return 16
		}
		return ways
	case rSRRIP, rQLRU:
		return ways
	case rPLRU:
		return ways - 1
	case rRandom:
		return 0
	default:
		panic("cache: unknown policy kind")
	}
}

// regionPolicy is the replacement state for one region (or the whole
// set when unpartitioned) across every set of a cache: meta holds each
// set's metadata at set*stride, and all operations switch on the
// resolved kind.
type regionPolicy struct {
	kind   rpolicy
	ways   int     // region width in ways
	stride int     // metadata bytes per set
	meta   []uint8 // nsets * stride
}

func newRegionPolicy(kind PolicyKind, ways, nsets int) regionPolicy {
	r := resolvePolicy(kind, ways)
	p := regionPolicy{kind: r, ways: ways, stride: metaStride(r, ways)}
	p.meta = make([]uint8, nsets*p.stride)
	for set := 0; set < nsets; set++ {
		p.resetSet(set)
	}
	return p
}

// resetSet restores one set's metadata to its post-construction state.
func (p *regionPolicy) resetSet(set int) {
	m := p.meta[set*p.stride : set*p.stride+p.stride]
	switch p.kind {
	case rLRU:
		for i := range m {
			m[i] = uint8(i)
		}
	case rPLRU:
		for i := range m {
			m[i] = 0
		}
	case rSRRIP, rQLRU:
		for i := range m {
			m[i] = rripMax
		}
	case rRandom:
	}
}

// resetAll restores every set's metadata in one pass, using bulk fills
// for the policies whose reset value is uniform.
func (p *regionPolicy) resetAll() {
	switch p.kind {
	case rPLRU:
		for i := range p.meta {
			p.meta[i] = 0
		}
	case rSRRIP, rQLRU:
		for i := range p.meta {
			p.meta[i] = rripMax
		}
	case rLRU:
		for set := 0; set*p.stride < len(p.meta); set++ {
			p.resetSet(set)
		}
	case rRandom:
	}
}

// moveToFront promotes way to MRU in an LRU recency order: the entries
// ahead of it shift down one place. metaStride pads every order of up
// to 16 ways to 8 or 16 bytes, with padding bytes no way equals and no
// promotion moves, so the search and the shift run on one or two words
// in registers. A longer order (the Ice Lake L2's) takes the byte loop:
// orders are a few bytes long, where a loop beats a call to memmove.
func moveToFront(order []uint8, way uint8) {
	switch len(order) {
	case 8:
		x := binary.LittleEndian.Uint64(order)
		binary.LittleEndian.PutUint64(order, shiftIn(x, bytePos(x, way), uint64(way)))
		return
	case 16:
		lo := binary.LittleEndian.Uint64(order)
		if pos := bytePos(lo, way); pos < 8 {
			binary.LittleEndian.PutUint64(order, shiftIn(lo, pos, uint64(way)))
			return
		}
		hi := binary.LittleEndian.Uint64(order[8:])
		binary.LittleEndian.PutUint64(order[8:], shiftIn(hi, bytePos(hi, way), lo>>56))
		binary.LittleEndian.PutUint64(order, lo<<8|uint64(way))
		return
	}
	pos := 0
	for i, v := range order {
		if v == way {
			pos = i
			break
		}
	}
	for ; pos > 0; pos-- {
		order[pos] = order[pos-1]
	}
	order[0] = way
}

// bytePos returns the position of the lowest byte of x equal to b, or 8
// when no byte is. The lowest zero byte of x^b·ones is exact: the
// borrow that makes a false positive only runs upward from a true one.
func bytePos(x uint64, b uint8) int {
	v := x ^ ones*uint64(b)
	return bits.TrailingZeros64((v-ones)&^v&highs) >> 3
}

// shiftIn moves bytes [0, pos) of x up one place and puts in (a byte)
// at byte 0; byte pos is overwritten and the bytes above it keep.
func shiftIn(x uint64, pos int, in uint64) uint64 {
	ahead := uint64(1)<<(8*pos+8) - 1 // bytes 0..pos; all ones at pos 7
	return x&^ahead | (x<<8|in)&ahead
}

// plruTouch flips tree bits along the path to way so the victim search
// points away from it. The tree is bits in a flat array; bit=0 means "go
// left for victim".
func plruTouch(bits []uint8, ways, way int) {
	node := 0
	lo, hi := 0, ways
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if way < mid {
			bits[node] = 1 // point victim search right
			node = 2*node + 1
			hi = mid
		} else {
			bits[node] = 0 // point victim search left
			node = 2*node + 2
			lo = mid
		}
	}
}

// touch records a hit on way w (region-relative) of the given set.
func (p *regionPolicy) touch(set, w int) {
	m := p.meta[set*p.stride:]
	switch p.kind {
	case rLRU:
		moveToFront(m[:p.stride], uint8(w))
	case rPLRU:
		plruTouch(m, p.ways, w)
	case rSRRIP, rQLRU:
		m[w] = 0
	case rRandom:
	}
}

// insert records a fill into way w (region-relative) of the given set.
// SRRIP inserts at a long re-reference prediction (RRPV 2); QLRU at age 1.
func (p *regionPolicy) insert(set, w int) {
	m := p.meta[set*p.stride:]
	switch p.kind {
	case rLRU:
		moveToFront(m[:p.stride], uint8(w))
	case rPLRU:
		plruTouch(m, p.ways, w)
	case rSRRIP:
		m[w] = rripMax - 1
	case rQLRU:
		m[w] = 1
	case rRandom:
	}
}

// victim selects the region-relative way to evict from the given set.
// SRRIP prefers the lowest way at the maximum RRPV, QLRU the highest way
// at the maximum age; both age the whole region until a way qualifies.
// Random replacement draws from rng in call order, which is why victim
// order is part of the determinism contract.
func (p *regionPolicy) victim(set int, rng *xrand.Rand) int {
	m := p.meta[set*p.stride:]
	switch p.kind {
	case rLRU:
		return int(m[p.ways-1])
	case rPLRU:
		node := 0
		lo, hi := 0, p.ways
		for hi-lo > 1 {
			mid := (lo + hi) / 2
			if m[node] == 0 {
				node = 2*node + 1
				hi = mid
			} else {
				node = 2*node + 2
				lo = mid
			}
		}
		return lo
	case rSRRIP:
		for {
			for i := 0; i < p.ways; i++ {
				if m[i] == rripMax {
					return i
				}
			}
			for i := 0; i < p.ways; i++ {
				m[i]++
			}
		}
	case rQLRU:
		for {
			for i := p.ways - 1; i >= 0; i-- {
				if m[i] == rripMax {
					return i
				}
			}
			for i := 0; i < p.ways; i++ {
				m[i]++
			}
		}
	case rRandom:
		return rng.Intn(p.ways)
	default:
		panic("cache: unknown policy kind")
	}
}

// policyInstance is a single-set view over a regionPolicy, used by
// policy-level tests to drive one instance through scripted sequences
// the way the old interface-based states were driven.
type policyInstance struct {
	r   regionPolicy
	rng *xrand.Rand
}

// newPolicyState builds one set's worth of policy state. rng is used only
// by randomized policies.
func newPolicyState(kind PolicyKind, ways int, rng *xrand.Rand) *policyInstance {
	return &policyInstance{r: newRegionPolicy(kind, ways, 1), rng: rng}
}

func (s *policyInstance) touch(way int)          { s.r.touch(0, way) }
func (s *policyInstance) insert(way int)         { s.r.insert(0, way) }
func (s *policyInstance) victim() int            { return s.r.victim(0, s.rng) }
func (s *policyInstance) reset()                 { s.r.resetSet(0) }
func (s *policyInstance) reseed(rng *xrand.Rand) { s.rng = rng }
