// Package ecdsa implements the Elliptic Curve Digital Signature Algorithm
// over binary curves, with the *vulnerable* signing path of OpenSSL
// 1.0.1e [62]: the per-signature nonce k is consumed by a Montgomery
// ladder whose per-bit branch produces secret-dependent code fetches
// (paper §7.1). The signer exposes the nonce and the ladder's iteration
// hook so the victim harness can bind iterations to simulated cache
// accesses and the experiments can score extracted bits against ground
// truth.
//
// Recovering even a fraction of the nonce bits across signatures breaks
// the private key via lattice attacks [1, 37, 61]; this package's job is
// to reproduce the leaking signer, not the lattice post-processing.
package ecdsa

import (
	"errors"
	"math/big"

	"repro/internal/ec2m"
	"repro/internal/xrand"
)

// PrivateKey holds the signing key d and public point Q = d·G.
type PrivateKey struct {
	Curve *ec2m.Curve
	D     *big.Int
	Q     ec2m.Point
}

// Signature is an ECDSA signature.
type Signature struct {
	R, S *big.Int
}

// GenerateKey draws a key pair on the curve.
func GenerateKey(c *ec2m.Curve, rng *xrand.Rand) *PrivateKey {
	d := RandScalar(c.N, rng)
	return &PrivateKey{Curve: c, D: d, Q: c.ScalarMult(d, c.G)}
}

// RandScalar returns a uniform scalar in [1, n-1].
func RandScalar(n *big.Int, rng *xrand.Rand) *big.Int {
	bytes := (n.BitLen() + 7) / 8
	buf := make([]byte, bytes)
	for {
		rng.Bytes(buf)
		k := new(big.Int).SetBytes(buf)
		k.Mod(k, n)
		if k.Sign() > 0 {
			return k
		}
	}
}

// ErrUnusableNonce is returned when a nonce yields r = 0 or s = 0 and
// must be redrawn.
var ErrUnusableNonce = errors.New("ecdsa: unusable nonce")

// SignWithNonce signs the message digest z with the given nonce k,
// running the vulnerable Montgomery ladder with the supplied hook. It is
// the core of the leaking signer and is exported so experiments can
// control the nonce.
func (k *PrivateKey) SignWithNonce(z, nonce *big.Int, hook ec2m.LadderHook) (Signature, error) {
	c := k.Curve
	n := c.N
	x, ok := c.LadderMultX(nonce, c.G, hook)
	if !ok {
		return Signature{}, ErrUnusableNonce
	}
	r := ec2m.ElemToInt(x)
	r.Mod(r, n)
	if r.Sign() == 0 {
		return Signature{}, ErrUnusableNonce
	}
	kInv := new(big.Int).ModInverse(nonce, n)
	if kInv == nil {
		return Signature{}, ErrUnusableNonce
	}
	s := new(big.Int).Mul(r, k.D)
	s.Add(s, new(big.Int).Mod(z, n))
	s.Mul(s, kInv)
	s.Mod(s, n)
	if s.Sign() == 0 {
		return Signature{}, ErrUnusableNonce
	}
	return Signature{R: r, S: s}, nil
}

// Sign signs digest z with a fresh random nonce, returning the signature
// and the nonce (the experiments' ground truth; a real API would never
// expose it).
func (k *PrivateKey) Sign(z *big.Int, rng *xrand.Rand, hook ec2m.LadderHook) (Signature, *big.Int, error) {
	for {
		nonce := RandScalar(k.Curve.N, rng)
		sig, err := k.SignWithNonce(z, nonce, hook)
		if err == nil {
			return sig, nonce, nil
		}
		if !errors.Is(err, ErrUnusableNonce) {
			return Signature{}, nil, err
		}
	}
}

// NonceBits returns the nonce bits as the ladder visits them: from bit
// BitLen-2 down to 0 (the top bit is implicit). This is the ground-truth
// sequence the attack's extracted bits are scored against (§7.3).
func NonceBits(nonce *big.Int) []uint {
	top := nonce.BitLen() - 1
	out := make([]uint, 0, top)
	for i := top - 1; i >= 0; i-- {
		out = append(out, nonce.Bit(i))
	}
	return out
}
