package lattice

import "math/big"

// This file keeps the original exact-rational LLL (Cohen, Algorithm
// 2.6.3) verbatim, renamed rationalLLL: the oracle that LLL's integral
// algorithm must match bit for bit. It must never be used outside tests.

// roundRat rounds a rational to the nearest integer.
func roundRat(r *big.Rat) *big.Int {
	num := new(big.Int).Set(r.Num())
	den := r.Denom()
	two := big.NewInt(2)
	half := new(big.Int).Div(den, two)
	if num.Sign() >= 0 {
		num.Add(num, half)
	} else {
		num.Sub(num, half)
	}
	return num.Quo(num, den)
}

// absCmpHalf compares |r| with 1/2.
func absCmpHalf(r *big.Rat) int {
	a := new(big.Rat).Abs(r)
	return a.Cmp(big.NewRat(1, 2))
}

// lllState carries the incrementally maintained Gram–Schmidt data of the
// classic LLL algorithm (Cohen, Algorithm 2.6.3): the mu coefficients
// and the squared norms B[i] = |b*_i|^2, both exact rationals. Every
// size-reduction and swap patches this state in O(n) rational
// operations, instead of recomputing the full O(n^3) orthogonalization —
// the difference between HNP lattices at sect163 scale reducing in
// fractions of a second versus tens of seconds.
type lllState struct {
	b  Basis
	mu [][]*big.Rat // mu[i][j], j < i
	B  []*big.Rat   // |b*_i|^2
}

// gsoRow computes row k's Gram–Schmidt data from rows < k, which must be
// up to date:
//
//	mu[k][j] = (<b_k, b_j> − Σ_{i<j} mu[j][i]·mu[k][i]·B[i]) / B[j]
//	B[k]     = <b_k, b_k> − Σ_{j<k} mu[k][j]^2·B[j]
func (s *lllState) gsoRow(k int) {
	for j := 0; j < k; j++ {
		acc := new(big.Rat).SetInt(dot(s.b[k], s.b[j]))
		for i := 0; i < j; i++ {
			t := new(big.Rat).Mul(s.mu[j][i], s.mu[k][i])
			t.Mul(t, s.B[i])
			acc.Sub(acc, t)
		}
		if s.B[j].Sign() != 0 {
			acc.Quo(acc, s.B[j])
		} else {
			acc.SetInt64(0)
		}
		s.mu[k][j] = acc
	}
	bk := new(big.Rat).SetInt(dot(s.b[k], s.b[k]))
	for j := 0; j < k; j++ {
		t := new(big.Rat).Mul(s.mu[k][j], s.mu[k][j])
		t.Mul(t, s.B[j])
		bk.Sub(bk, t)
	}
	s.B[k] = bk
}

// red size-reduces b_k against b_l and patches mu[k][*] in place.
func (s *lllState) red(k, l int) {
	if absCmpHalf(s.mu[k][l]) <= 0 {
		return
	}
	q := roundRat(s.mu[k][l])
	qr := new(big.Rat).SetInt(q)
	t := new(big.Int)
	for c := range s.b[k] {
		s.b[k][c].Sub(s.b[k][c], t.Mul(q, s.b[l][c]))
	}
	for j := 0; j < l; j++ {
		s.mu[k][j].Sub(s.mu[k][j], new(big.Rat).Mul(qr, s.mu[l][j]))
	}
	s.mu[k][l].Sub(s.mu[k][l], qr)
}

// swap exchanges b_{k-1} and b_k and patches the Gram–Schmidt state with
// the standard update formulas (Cohen 2.6.3, step SWAP).
func (s *lllState) swap(k int) {
	m := new(big.Rat).Set(s.mu[k][k-1])
	// New B[k-1] after the swap: B[k] + m^2·B[k-1].
	bNew := new(big.Rat).Mul(m, m)
	bNew.Mul(bNew, s.B[k-1])
	bNew.Add(bNew, s.B[k])

	s.b[k-1], s.b[k] = s.b[k], s.b[k-1]
	for j := 0; j < k-1; j++ {
		s.mu[k-1][j], s.mu[k][j] = s.mu[k][j], s.mu[k-1][j]
	}
	mNew := new(big.Rat)
	if bNew.Sign() != 0 {
		mNew.Mul(m, s.B[k-1])
		mNew.Quo(mNew, bNew)
		bk := new(big.Rat).Mul(s.B[k-1], s.B[k])
		bk.Quo(bk, bNew)
		s.B[k] = bk
	} else {
		// Degenerate (linearly dependent) rows: both projections vanish.
		s.B[k] = new(big.Rat)
	}
	s.mu[k][k-1] = mNew
	s.B[k-1] = bNew
	for i := k + 1; i < len(s.b); i++ {
		t := new(big.Rat).Set(s.mu[i][k])
		s.mu[i][k] = new(big.Rat).Sub(s.mu[i][k-1], new(big.Rat).Mul(m, t))
		s.mu[i][k-1] = new(big.Rat).Add(t, new(big.Rat).Mul(mNew, s.mu[i][k]))
	}
}

// rationalLLL reduces the basis in place with the Lenstra–Lenstra–Lovász
// algorithm (delta = 3/4), using exact rational arithmetic with
// incrementally maintained Gram–Schmidt state. The reduced basis spans
// the same lattice; its first vector is short (within the usual
// 2^((n-1)/2) approximation factor of the shortest vector), which is all
// HNP needs.
func rationalLLL(b Basis) {
	n := len(b)
	if n <= 1 {
		return
	}
	delta := big.NewRat(3, 4)
	s := &lllState{b: b, mu: make([][]*big.Rat, n), B: make([]*big.Rat, n)}
	for i := 0; i < n; i++ {
		s.mu[i] = make([]*big.Rat, i)
		s.gsoRow(i)
	}
	k := 1
	for k < n {
		s.red(k, k-1)
		// Lovász condition: |b*_k|^2 >= (delta − mu_{k,k-1}^2)·|b*_{k-1}|^2.
		musq := new(big.Rat).Mul(s.mu[k][k-1], s.mu[k][k-1])
		rhs := new(big.Rat).Sub(delta, musq)
		rhs.Mul(rhs, s.B[k-1])
		if s.B[k].Cmp(rhs) < 0 {
			s.swap(k)
			if k > 1 {
				k--
			}
		} else {
			for l := k - 2; l >= 0; l-- {
				s.red(k, l)
			}
			k++
		}
	}
}
