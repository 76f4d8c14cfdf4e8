package ecdsa

import (
	"math/big"
	"testing"
	"testing/quick"

	"repro/internal/ec2m"
	"repro/internal/xrand"
)

func TestSignVerifyRoundTripToy(t *testing.T) {
	c := ec2m.ToyCurve()
	rng := xrand.New(1)
	key := GenerateKey(c, rng)
	for i := 0; i < 10; i++ {
		z := big.NewInt(int64(1000 + i))
		sig, nonce, err := key.Sign(z, rng, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !verify(key, z, sig) {
			t.Fatalf("signature %d did not verify (nonce %v)", i, nonce)
		}
		// A corrupted digest must fail.
		if verify(key, new(big.Int).Add(z, big.NewInt(1)), sig) {
			t.Fatal("verification accepted a wrong digest")
		}
		// A corrupted signature must fail.
		bad := Signature{R: sig.R, S: new(big.Int).Add(sig.S, big.NewInt(1))}
		if verify(key, z, bad) {
			t.Fatal("verification accepted a corrupted signature")
		}
	}
}

func TestSignatureDeterministicPerNonce(t *testing.T) {
	c := ec2m.Sect163()
	rng := xrand.New(2)
	key := GenerateKey(c, rng)
	z := big.NewInt(12345)
	nonce := RandScalar(c.N, rng)
	s1, err1 := key.SignWithNonce(z, nonce, nil)
	s2, err2 := key.SignWithNonce(z, nonce, nil)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if s1.R.Cmp(s2.R) != 0 || s1.S.Cmp(s2.S) != 0 {
		t.Fatal("same nonce must give the same signature")
	}
}

func TestHookObservesExactNonceBits(t *testing.T) {
	c := ec2m.Sect163()
	rng := xrand.New(3)
	key := GenerateKey(c, rng)
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		nonce := RandScalar(c.N, r)
		var seen []uint
		_, err := key.SignWithNonce(big.NewInt(99), nonce, func(s ec2m.LadderStep) {
			seen = append(seen, s.Bit)
		})
		if err != nil {
			return true // unusable nonce: redraw in real flows
		}
		want := NonceBits(nonce)
		if len(seen) != len(want) {
			return false
		}
		for i := range want {
			if seen[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestNonceBitsLayout(t *testing.T) {
	n := big.NewInt(0b110101)
	bits := NonceBits(n)
	want := []uint{1, 0, 1, 0, 1}
	if len(bits) != len(want) {
		t.Fatalf("len = %d, want %d", len(bits), len(want))
	}
	for i := range want {
		if bits[i] != want[i] {
			t.Fatalf("bit %d = %d, want %d", i, bits[i], want[i])
		}
	}
}

func TestRandScalarInRange(t *testing.T) {
	n := big.NewInt(1000)
	rng := xrand.New(4)
	for i := 0; i < 200; i++ {
		k := RandScalar(n, rng)
		if k.Sign() <= 0 || k.Cmp(n) >= 0 {
			t.Fatalf("scalar %v out of [1, n)", k)
		}
	}
}

// Failure-path coverage: degenerate nonces and malformed signatures must
// produce clean errors/rejections, never a bogus signature or a
// verification pass.

func TestSignWithDegenerateNonces(t *testing.T) {
	c := ec2m.ToyCurve()
	rng := xrand.New(5)
	key := GenerateKey(c, rng)
	z := big.NewInt(777)
	for _, tc := range []struct {
		name  string
		nonce *big.Int
	}{
		{"zero", big.NewInt(0)},
		{"multiple of n", new(big.Int).Set(c.N)},
		{"2n", new(big.Int).Lsh(c.N, 1)},
	} {
		if _, err := key.SignWithNonce(z, tc.nonce, nil); err == nil {
			t.Errorf("%s nonce: expected an error", tc.name)
		}
	}
}

func TestVerifyRejectsMalformedSignatures(t *testing.T) {
	c := ec2m.ToyCurve()
	rng := xrand.New(6)
	key := GenerateKey(c, rng)
	z := big.NewInt(4242)
	sig, _, err := key.Sign(z, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !verify(key, z, sig) {
		t.Fatal("control signature did not verify")
	}
	bad := []Signature{
		{R: nil, S: sig.S},
		{R: sig.R, S: nil},
		{R: big.NewInt(0), S: sig.S},
		{R: sig.R, S: big.NewInt(0)},
		{R: new(big.Int).Neg(sig.R), S: sig.S},
		{R: sig.R, S: new(big.Int).Neg(sig.S)},
		{R: new(big.Int).Set(c.N), S: sig.S},
		{R: sig.R, S: new(big.Int).Set(c.N)},
		{R: new(big.Int).Add(c.N, big.NewInt(1)), S: sig.S},
	}
	for i, b := range bad {
		if verify(key, z, b) {
			t.Errorf("malformed signature %d verified: %+v", i, b)
		}
	}
}

// TestVerifyRejectsWrongKey: a signature must not verify under another
// key pair (the scenario's key-recovery check depends on this).
func TestVerifyRejectsWrongKey(t *testing.T) {
	c := ec2m.ToyCurve()
	rng := xrand.New(7)
	key := GenerateKey(c, rng)
	other := GenerateKey(c, rng)
	if key.D.Cmp(other.D) == 0 {
		t.Skip("improbable: same key drawn twice")
	}
	z := big.NewInt(31337)
	sig, _, err := key.Sign(z, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	if verify(other, z, sig) {
		t.Fatal("signature verified under the wrong public key")
	}
}

// verify checks the signature algebraically: u1·G + u2·Q must have
// x-coordinate r (mod n). Verification is exact on curves whose N is the
// true subgroup order (ToyCurve); on the reproduction-scale curves it
// holds only for recomputation-style checks (see ec2m parameter notes).
func verify(pub *PrivateKey, z *big.Int, sig Signature) bool {
	c := pub.Curve
	n := c.N
	if sig.R == nil || sig.S == nil || sig.R.Sign() <= 0 || sig.S.Sign() <= 0 {
		return false
	}
	if sig.R.Cmp(n) >= 0 || sig.S.Cmp(n) >= 0 {
		return false
	}
	w := new(big.Int).ModInverse(sig.S, n)
	if w == nil {
		return false
	}
	u1 := new(big.Int).Mul(new(big.Int).Mod(z, n), w)
	u1.Mod(u1, n)
	u2 := new(big.Int).Mul(sig.R, w)
	u2.Mod(u2, n)
	p := c.Add(c.ScalarMult(u1, c.G), c.ScalarMult(u2, pub.Q))
	if p.Inf {
		return false
	}
	x := ec2m.ElemToInt(p.X)
	x.Mod(x, n)
	return x.Cmp(sig.R) == 0
}
