// Package ec2m implements elliptic curves over binary fields GF(2^m) —
// the setting of the paper's victim, OpenSSL 1.0.1e's ECDSA on curve
// sect571r1 (§7.1) — including the López–Dahab x-only Montgomery ladder
// whose secret-dependent control flow is the attack's leak (Figure 8a).
//
// Curves have the short Weierstrass binary form y² + xy = x³ + ax² + b.
package ec2m

import (
	"math/big"

	"repro/internal/gf2m"
	"repro/internal/xrand"
)

// Point is an affine curve point; Inf marks the point at infinity.
type Point struct {
	X, Y gf2m.Elem
	Inf  bool
}

// Curve bundles a binary field, coefficients and a base point.
type Curve struct {
	F    *gf2m.Field
	A, B gf2m.Elem
	// G is the base point and N the order of the subgroup it generates
	// (exact for ToyCurve, reproduction-scale for the Sect* curves; see
	// the package documentation of the parameter constructors).
	G Point
	N *big.Int

	Name string
}

// Infinity returns the point at infinity.
func (c *Curve) Infinity() Point { return Point{Inf: true} }

// OnCurve reports whether p satisfies y² + xy = x³ + ax² + b.
func (c *Curve) OnCurve(p Point) bool {
	if p.Inf {
		return true
	}
	f := c.F
	lhs, t := f.NewElem(), f.NewElem()
	f.Sqr(lhs, p.Y)
	f.Mul(t, p.X, p.Y)
	f.Add(lhs, lhs, t)

	rhs, x2 := f.NewElem(), f.NewElem()
	f.Sqr(x2, p.X)
	f.Mul(rhs, x2, p.X) // x³
	f.Mul(t, c.A, x2)
	f.Add(rhs, rhs, t)
	f.Add(rhs, rhs, c.B)
	return lhs.Equal(rhs)
}

// Add returns p+q using the affine group law.
func (c *Curve) Add(p, q Point) Point {
	if p.Inf {
		return q
	}
	if q.Inf {
		return p
	}
	f := c.F
	if p.X.Equal(q.X) {
		// Either q = -p (same x, y2 = x1+y1) or doubling.
		negY := f.NewElem()
		f.Add(negY, p.X, p.Y)
		if q.Y.Equal(negY) {
			return c.Infinity()
		}
		return c.Double(p)
	}
	// λ = (y1+y2)/(x1+x2)
	num, den, lam := f.NewElem(), f.NewElem(), f.NewElem()
	f.Add(num, p.Y, q.Y)
	f.Add(den, p.X, q.X)
	f.Inv(den, den)
	f.Mul(lam, num, den)
	// x3 = λ² + λ + x1 + x2 + a
	x3, t := f.NewElem(), f.NewElem()
	f.Sqr(x3, lam)
	f.Add(x3, x3, lam)
	f.Add(x3, x3, p.X)
	f.Add(x3, x3, q.X)
	f.Add(x3, x3, c.A)
	// y3 = λ(x1+x3) + x3 + y1
	y3 := f.NewElem()
	f.Add(t, p.X, x3)
	f.Mul(y3, lam, t)
	f.Add(y3, y3, x3)
	f.Add(y3, y3, p.Y)
	return Point{X: x3, Y: y3}
}

// Double returns 2p using the affine group law.
func (c *Curve) Double(p Point) Point {
	if p.Inf || p.X.Zero() {
		return c.Infinity()
	}
	f := c.F
	// λ = x + y/x
	lam, t := f.NewElem(), f.NewElem()
	f.Inv(t, p.X)
	f.Mul(lam, p.Y, t)
	f.Add(lam, lam, p.X)
	// x3 = λ² + λ + a
	x3 := f.NewElem()
	f.Sqr(x3, lam)
	f.Add(x3, x3, lam)
	f.Add(x3, x3, c.A)
	// y3 = x² + (λ+1)·x3
	y3 := f.NewElem()
	f.Sqr(y3, p.X)
	f.Add(t, lam, c.F.One())
	f.Mul(t, t, x3)
	f.Add(y3, y3, t)
	return Point{X: x3, Y: y3}
}

// Neg returns -p = (x, x+y).
func (c *Curve) Neg(p Point) Point {
	if p.Inf {
		return p
	}
	y := c.F.NewElem()
	c.F.Add(y, p.X, p.Y)
	return Point{X: p.X.Clone(), Y: y}
}

// ScalarMult returns k·p via affine double-and-add. It is used for
// non-secret operations (key generation, verification); the vulnerable
// signing path uses LadderMult.
func (c *Curve) ScalarMult(k *big.Int, p Point) Point {
	r := c.Infinity()
	for i := k.BitLen() - 1; i >= 0; i-- {
		r = c.Double(r)
		if k.Bit(i) == 1 {
			r = c.Add(r, p)
		}
	}
	return r
}

// SolveY derives a point with the given x (if one exists): y² + xy =
// x³ + ax² + b reduces to z² + z = rhs/x², solvable by half-trace when
// the trace is zero.
func (c *Curve) SolveY(x gf2m.Elem) (Point, bool) {
	f := c.F
	if x.Zero() {
		return Point{}, false
	}
	x2, rhs, t := f.NewElem(), f.NewElem(), f.NewElem()
	f.Sqr(x2, x)
	f.Mul(rhs, x2, x)
	f.Mul(t, c.A, x2)
	f.Add(rhs, rhs, t)
	f.Add(rhs, rhs, c.B)
	// cc = rhs / x²
	inv := f.NewElem()
	f.Inv(inv, x2)
	cc := f.NewElem()
	f.Mul(cc, rhs, inv)
	if f.Trace(cc) != 0 {
		return Point{}, false
	}
	z := f.HalfTrace(cc)
	y := f.NewElem()
	f.Mul(y, z, x)
	p := Point{X: x.Clone(), Y: y}
	return p, c.OnCurve(p)
}

// ElemToInt converts a field element to an integer (polynomial bits as a
// big-endian integer), the conversion ECDSA uses for r.
func ElemToInt(e gf2m.Elem) *big.Int {
	out := new(big.Int)
	for i := len(e) - 1; i >= 0; i-- {
		out.Lsh(out, 64)
		out.Or(out, new(big.Int).SetUint64(e[i]))
	}
	return out
}

// randScalar returns a uniform scalar in [1, n-1].
func randScalar(n *big.Int, rng *xrand.Rand) *big.Int {
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
