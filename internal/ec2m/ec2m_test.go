package ec2m

import (
	"math/big"
	"testing"
	"testing/quick"

	"repro/internal/gf2m"
	"repro/internal/xrand"
)

func TestToyGroupLaw(t *testing.T) {
	c := ToyCurve()
	if !c.OnCurve(c.G) {
		t.Fatal("generator not on curve")
	}
	g := c.G
	// Associativity on small multiples: (G+G)+G == G+(G+G).
	lhs := c.Add(c.Add(g, g), g)
	rhs := c.Add(g, c.Add(g, g))
	if !pointsEqual(lhs, rhs) {
		t.Fatal("associativity violated")
	}
	// Double == Add(p, p).
	if !pointsEqual(c.Double(g), c.Add(g, g)) {
		t.Fatal("double != add(p,p)")
	}
	// p + (-p) = O.
	if !c.Add(g, c.Neg(g)).Inf {
		t.Fatal("p + (-p) != infinity")
	}
	// n·G = O.
	if !c.ScalarMult(c.N, g).Inf {
		t.Fatalf("order %v does not annihilate G", c.N)
	}
}

func pointsEqual(p, q Point) bool {
	if p.Inf || q.Inf {
		return p.Inf == q.Inf
	}
	return p.X.Equal(q.X) && p.Y.Equal(q.Y)
}

func TestToyScalarMultMatchesRepeatedAdd(t *testing.T) {
	c := ToyCurve()
	acc := c.Infinity()
	for k := int64(1); k <= 20; k++ {
		acc = c.Add(acc, c.G)
		sm := c.ScalarMult(big.NewInt(k), c.G)
		if !pointsEqual(acc, sm) {
			t.Fatalf("k=%d: repeated add and double-and-add disagree", k)
		}
		if !c.OnCurve(sm) {
			t.Fatalf("k=%d: result off curve", k)
		}
	}
}

func TestLadderMatchesScalarMultToy(t *testing.T) {
	c := ToyCurve()
	f := func(kraw uint32) bool {
		k := new(big.Int).SetUint64(uint64(kraw%65535) + 2)
		want := c.ScalarMult(k, c.G)
		got, ok := c.LadderMultX(k, c.G, nil)
		if want.Inf {
			return !ok
		}
		return ok && got.Equal(want.X)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLadderMatchesScalarMult163(t *testing.T) {
	c := Sect163()
	rng := xrand.New(7)
	for i := 0; i < 3; i++ {
		k := randScalar(big.NewInt(1<<62), rng)
		want := c.ScalarMult(k, c.G)
		got, ok := c.LadderMultX(k, c.G, nil)
		if !ok || want.Inf {
			t.Fatalf("unexpected infinity for k=%v", k)
		}
		if !got.Equal(want.X) {
			t.Fatalf("ladder x mismatch for k=%v", k)
		}
	}
}

func TestLadderHookSeesAllBits(t *testing.T) {
	c := ToyCurve()
	k := big.NewInt(0b1011010111)
	var steps []LadderStep
	if _, ok := c.LadderMultX(k, c.G, func(s LadderStep) { steps = append(steps, s) }); !ok {
		t.Fatal("ladder returned infinity")
	}
	if len(steps) != k.BitLen()-1 {
		t.Fatalf("hook fired %d times, want %d", len(steps), k.BitLen()-1)
	}
	for i, s := range steps {
		wantIdx := k.BitLen() - 2 - i
		if s.Index != wantIdx {
			t.Fatalf("step %d index = %d, want %d", i, s.Index, wantIdx)
		}
		if s.Bit != k.Bit(wantIdx) {
			t.Fatalf("step %d bit = %d, want %d", i, s.Bit, k.Bit(wantIdx))
		}
	}
}

func TestSolveYProducesCurvePoints(t *testing.T) {
	for _, c := range []*Curve{ToyCurve(), Sect163()} {
		found := 0
		for xv := uint64(2); xv < 40 && found < 5; xv++ {
			if p, ok := c.SolveY(c.F.FromUint64(xv)); ok {
				if !c.OnCurve(p) {
					t.Fatalf("%s: solved point off curve at x=%d", c.Name, xv)
				}
				found++
			}
		}
		if found == 0 {
			t.Fatalf("%s: no solvable x found", c.Name)
		}
	}
}

func TestSect571Generator(t *testing.T) {
	c := Sect571()
	if !c.OnCurve(c.G) {
		t.Fatal("sect571 generator off curve")
	}
	if c.N.BitLen() != 571 {
		t.Fatalf("order bit length = %d, want 571", c.N.BitLen())
	}
	if !c.N.ProbablyPrime(16) {
		t.Fatal("order not prime")
	}
}

func TestElemIntRoundTrip(t *testing.T) {
	c := Sect163()
	rng := xrand.New(11)
	for i := 0; i < 10; i++ {
		e := c.F.Rand(rng)
		v := ElemToInt(e)
		back := intToElem(c.F, v)
		if !back.Equal(e) {
			t.Fatalf("round trip failed: %v -> %v -> %v", e, v, back)
		}
	}
}

// intToElem converts an integer to a field element, reducing bit-length
// by truncation to the field size (as standard implementations do).
func intToElem(f *gf2m.Field, v *big.Int) gf2m.Elem {
	e := f.NewElem()
	words := v.Bits()
	for i := 0; i < len(words) && i < len(e); i++ {
		e[i] = uint64(words[i])
	}
	// Mask to field width.
	for i := f.M; i < len(e)*64; i++ {
		e.SetBit(i, 0)
	}
	return e
}
