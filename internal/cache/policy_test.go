package cache

import (
	"slices"
	"testing"

	"repro/internal/xrand"
)

// TestParsePolicyRoundTrip checks ParsePolicy inverts String for every
// supported policy, tolerates case, and rejects unknown names.
func TestParsePolicyRoundTrip(t *testing.T) {
	for _, k := range Policies() {
		got, err := ParsePolicy(k.String())
		if err != nil || got != k {
			t.Errorf("ParsePolicy(%q) = %v, %v", k.String(), got, err)
		}
		if got, err := ParsePolicy("  "); err == nil {
			t.Errorf("ParsePolicy accepted blank name as %v", got)
		}
	}
	for name, want := range map[string]PolicyKind{
		"lru": TrueLRU, "PLRU": TreePLRU, "srrip": SRRIP, "qlru": QLRU, "random": RandomRepl,
	} {
		if got, err := ParsePolicy(name); err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParsePolicy("FIFO"); err == nil {
		t.Error("ParsePolicy accepted an unknown policy")
	}
	if len(Policies()) != 5 {
		t.Errorf("Policies() = %v, want all five kinds", Policies())
	}
}

// policyScript drives one policyState through a scripted sequence and
// checks every expected victim. Victim checks use the real (mutating)
// victim() call, so expectations account for aging side effects exactly
// as Insert would observe them.
type policyStep struct {
	op   string // "insert", "touch", "victim"
	way  int    // for insert/touch
	want int    // for victim
}

// TestPolicyVictimSemantics pins the victim/touch/insert behaviour of
// every deterministic policy with per-policy scripts.
func TestPolicyVictimSemantics(t *testing.T) {
	cases := []struct {
		name  string
		kind  PolicyKind
		ways  int
		steps []policyStep
	}{
		{
			// True LRU: victim is always the least-recently-used way; touch
			// and insert both promote to MRU.
			name: "LRU order", kind: TrueLRU, ways: 4,
			steps: []policyStep{
				{op: "insert", way: 0}, {op: "insert", way: 1}, {op: "insert", way: 2}, {op: "insert", way: 3},
				{op: "victim", want: 0},
				{op: "touch", way: 0},
				{op: "victim", want: 1},
				{op: "touch", way: 1}, {op: "touch", way: 2}, {op: "touch", way: 3},
				{op: "victim", want: 0},
			},
		},
		{
			// Tree-PLRU approximates LRU: after filling 0..3 in order the
			// victim is way 0, but a touch of 0 sends the search to the
			// *other half* of the tree (way 2), not to the true LRU way 1.
			name: "Tree-PLRU approximation", kind: TreePLRU, ways: 4,
			steps: []policyStep{
				{op: "insert", way: 0}, {op: "insert", way: 1}, {op: "insert", way: 2}, {op: "insert", way: 3},
				{op: "victim", want: 0},
				{op: "touch", way: 0},
				{op: "victim", want: 2},
			},
		},
		{
			// SRRIP: fills insert at RRPV 2, so the first victim search ages
			// every way to 3 and picks the lowest index. A touched way is
			// promoted to 0 and survives the next search.
			name: "SRRIP aging", kind: SRRIP, ways: 4,
			steps: []policyStep{
				{op: "insert", way: 0}, {op: "insert", way: 1}, {op: "insert", way: 2}, {op: "insert", way: 3},
				{op: "victim", want: 0}, // ages all to 3, lowest index wins
				{op: "touch", way: 1},
				{op: "victim", want: 0}, // way 0 still at max, way 1 protected
			},
		},
		{
			// SRRIP distinguishes insert (RRPV 2) from touch (RRPV 0): an
			// inserted-then-touched way outlives a merely inserted one.
			name: "SRRIP insert vs touch", kind: SRRIP, ways: 2,
			steps: []policyStep{
				{op: "insert", way: 0}, {op: "touch", way: 0}, {op: "insert", way: 1},
				{op: "victim", want: 1},
			},
		},
		{
			// QLRU: inserts at age 1; with no way at the maximum the set ages
			// until one qualifies, and the *last* maximal way is preferred —
			// the mild scan resistance that distinguishes it from SRRIP.
			name: "QLRU last-maximal preference", kind: QLRU, ways: 4,
			steps: []policyStep{
				{op: "insert", way: 0}, {op: "insert", way: 1}, {op: "insert", way: 2}, {op: "insert", way: 3},
				{op: "victim", want: 3},
				{op: "touch", way: 3},
				{op: "victim", want: 2},
			},
		},
		{
			// Non-power-of-two associativity: TreePLRU falls back to true
			// LRU (the 11-way LLC slice case).
			name: "Tree-PLRU odd-ways fallback", kind: TreePLRU, ways: 3,
			steps: []policyStep{
				{op: "insert", way: 0}, {op: "insert", way: 1}, {op: "insert", way: 2},
				{op: "victim", want: 0},
				{op: "touch", way: 0},
				{op: "victim", want: 1},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newPolicyState(tc.kind, tc.ways, xrand.New(1))
			for i, st := range tc.steps {
				switch st.op {
				case "insert":
					s.insert(st.way)
				case "touch":
					s.touch(st.way)
				case "victim":
					if got := s.victim(); got != st.want {
						t.Fatalf("step %d: victim = %d, want %d", i, got, st.want)
					}
				}
			}
		})
	}
}

// TestPolicyVictimInRange drives every policy, over several geometries,
// through a pseudo-random op mix and checks the structural invariant:
// victim() always returns a way in [0, ways).
func TestPolicyVictimInRange(t *testing.T) {
	for _, kind := range Policies() {
		for _, ways := range []int{2, 4, 7, 8, 11, 16} {
			rng := xrand.New(uint64(ways) * 31)
			s := newPolicyState(kind, ways, rng)
			ops := xrand.New(0xabc)
			for i := 0; i < 500; i++ {
				switch ops.Intn(3) {
				case 0:
					s.insert(ops.Intn(ways))
				case 1:
					s.touch(ops.Intn(ways))
				case 2:
					if v := s.victim(); v < 0 || v >= ways {
						t.Fatalf("%v/%d-way: victim %d out of range at op %d", kind, ways, v, i)
					}
				}
			}
		}
	}
}

// TestPolicyResetReplay is the reseed-replay contract at the policy
// level: after an arbitrary op history, reset + reseed with an
// identically seeded rng must replay exactly the victim stream of a
// fresh state — for randomized policies included. This is what lets
// pooled hosts reuse cache arrays without perturbing determinism.
func TestPolicyResetReplay(t *testing.T) {
	const ways, seed = 8, uint64(37)
	drive := func(s *policyInstance) []int {
		ops := xrand.New(0x5eed)
		var victims []int
		for i := 0; i < 300; i++ {
			switch ops.Intn(3) {
			case 0:
				s.insert(ops.Intn(ways))
			case 1:
				s.touch(ops.Intn(ways))
			case 2:
				victims = append(victims, s.victim())
			}
		}
		return victims
	}
	for _, kind := range Policies() {
		fresh := newPolicyState(kind, ways, xrand.New(seed))
		want := drive(fresh)

		dirty := newPolicyState(kind, ways, xrand.New(99))
		scramble := xrand.New(0xd1e7)
		for i := 0; i < 100; i++ {
			dirty.insert(scramble.Intn(ways))
			dirty.victim()
		}
		dirty.reset()
		dirty.reseed(xrand.New(seed))
		got := drive(dirty)
		if len(got) != len(want) {
			t.Fatalf("%v: replay length %d vs %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v: victim stream diverged at %d: %d vs %d", kind, i, got[i], want[i])
			}
		}
	}
}

// TestMoveToFrontWord checks the one-word 8-way moveToFront against the
// byte loop on every 8-way permutation and every way.
func TestMoveToFrontWord(t *testing.T) {
	perm := []uint8{0, 1, 2, 3, 4, 5, 6, 7}
	var visit func(k int)
	visit = func(k int) {
		if k == len(perm) {
			for way := uint8(0); way < 8; way++ {
				got := append([]uint8(nil), perm...)
				moveToFront(got, way)
				want := append([]uint8{way}, perm...)
				for i := 1; i < len(want); i++ {
					if want[i] == way {
						want = append(want[:i], want[i+1:]...)
						break
					}
				}
				if string(got) != string(want) {
					t.Fatalf("moveToFront(%v, %d) = %v, want %v", perm, way, got, want)
				}
			}
			return
		}
		for i := k; i < len(perm); i++ {
			perm[k], perm[i] = perm[i], perm[k]
			visit(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	visit(0)
}

// moveToFrontLoop is the byte loop moveToFront replaces on padded
// orders: find the way, shift the entries ahead of it down one place.
func moveToFrontLoop(order []uint8, way uint8) {
	pos := 0
	for i, v := range order {
		if v == way {
			pos = i
			break
		}
	}
	copy(order[1:pos+1], order[:pos])
	order[0] = way
}

// TestMoveToFrontPadded checks moveToFront against the byte loop on
// every order length 1-16 and every position, laid out as metaStride
// pads it (resetSet's padding bytes), over the identity, its reverse
// and shuffled orders: the order's bytes must match the loop's and the
// padding must not move.
func TestMoveToFrontPadded(t *testing.T) {
	rng := xrand.New(5)
	for ways := 1; ways <= 16; ways++ {
		stride := metaStride(rLRU, ways)
		if want := 8 + 8*((ways-1)/8); stride != want {
			t.Fatalf("%d ways: LRU stride %d, want %d", ways, stride, want)
		}
		for trial := 0; trial < 8; trial++ {
			perm := make([]uint8, ways)
			for i := range perm {
				perm[i] = uint8(i)
			}
			switch trial {
			case 0:
			case 1:
				slices.Reverse(perm)
			default:
				for i := len(perm) - 1; i > 0; i-- {
					j := rng.Intn(i + 1)
					perm[i], perm[j] = perm[j], perm[i]
				}
			}
			for pos := range perm {
				p := newRegionPolicy(TrueLRU, ways, 1)
				copy(p.meta, perm)
				want := slices.Clone(p.meta)
				moveToFrontLoop(want[:ways], perm[pos])
				moveToFront(p.meta, perm[pos])
				if !slices.Equal(p.meta, want) {
					t.Fatalf("%d ways: promoting %d at position %d of %v gives %v, want %v", ways, perm[pos], pos, perm, p.meta, want)
				}
			}
		}
	}
}
