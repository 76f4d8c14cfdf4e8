// Package lattice implements the post-processing step the paper defers
// to prior work [1, 37, 61]: recovering the ECDSA private key from
// partially known nonces via a Hidden Number Problem (HNP) lattice
// attack. It provides an integer LLL reduction (from scratch: Cohen's
// integral LLL, fraction-free Gram–Schmidt on integers only, for
// linearly independent rows) and the Howgrave-Graham–Smart HNP
// construction over the leaked most-significant nonce bits that the
// cache side channel extracts.
package lattice

import (
	"errors"
	"math/big"
)

// Basis is a list of integer lattice basis vectors (row vectors).
type Basis [][]*big.Int

// NewBasis allocates a zero basis of the given dimensions.
func NewBasis(rows, cols int) Basis {
	b := make(Basis, rows)
	for i := range b {
		b[i] = make([]*big.Int, cols)
		for j := range b[i] {
			b[i][j] = new(big.Int)
		}
	}
	return b
}

// Clone deep-copies the basis.
func (b Basis) Clone() Basis {
	out := make(Basis, len(b))
	for i := range b {
		out[i] = make([]*big.Int, len(b[i]))
		for j := range b[i] {
			out[i][j] = new(big.Int).Set(b[i][j])
		}
	}
	return out
}

// dot returns the integer inner product of two rows.
func dot(a, b []*big.Int) *big.Int {
	s := new(big.Int)
	t := new(big.Int)
	for i := range a {
		s.Add(s, t.Mul(a[i], b[i]))
	}
	return s
}

// LLL reduces the basis in place with the Lenstra–Lenstra–Lovász
// algorithm (delta = 3/4). The rows must be linearly independent (HNP's
// basis is triangular with a nonzero diagonal); LLL panics otherwise.
// The reduced basis spans the same lattice; its first vector is short
// (within the usual 2^((n-1)/2) approximation factor of the shortest
// vector), which is all HNP needs.
//
// It is Cohen's integral LLL (Algorithm 2.6.7): Gram–Schmidt is carried
// as the integers d[i+1] = det Gram(b_0..b_i) (d[0] = 1) and
// lam[k][j] = mu_kj·d[j+1], and every division in the updates is exact.
// These are the rational algorithm's quantities scaled by positive
// integers, so each size reduction and each Lovász test decides exactly
// as exact rational arithmetic would, and the output is bit-identical.
func LLL(b Basis) {
	n := len(b)
	if n <= 1 {
		return
	}
	s := &gso{b: b, lam: make([][]*big.Int, n), d: make([]*big.Int, n+1)}
	for i := range s.lam {
		s.lam[i] = make([]*big.Int, i)
	}
	s.d[0] = big.NewInt(1)
	s.addRow(0)
	three := big.NewInt(3)
	lhs, rhs, t := new(big.Int), new(big.Int), new(big.Int)
	k, kmax := 1, 0
	for k < n {
		if k > kmax {
			kmax = k
			s.addRow(k)
		}
		s.red(k, k-1)
		// Lovász condition |b*_k|² >= (3/4 − mu²)·|b*_{k-1}|², scaled by
		// 4·d[k]·d[k-1]: swap when 4·d[k+1]·d[k-1] < 3·d[k]² − 4·lam².
		lhs.Mul(s.d[k+1], s.d[k-1])
		lhs.Lsh(lhs, 2)
		rhs.Mul(s.d[k], s.d[k])
		rhs.Mul(rhs, three)
		t.Mul(s.lam[k][k-1], s.lam[k][k-1])
		rhs.Sub(rhs, t.Lsh(t, 2))
		if lhs.Cmp(rhs) < 0 {
			s.swap(k, kmax)
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

var errDependent = errors.New("lattice: LLL needs linearly independent rows")

// gso is LLL's integral Gram–Schmidt data: d[i] and lam[k][j] for the
// rows up to the highest one reached so far.
type gso struct {
	b   Basis
	lam [][]*big.Int // lam[k][j] = mu_kj·d[j+1], j < k
	d   []*big.Int   // d[i] = det Gram(b_0..b_{i-1})
}

// addRow computes row k's data from rows < k (Cohen 2.6.7, step 2):
//
//	u_j = <b_k, b_j>; u_j <- (d[i+1]·u_j − lam[k][i]·lam[j][i]) / d[i], i < j
//
// giving lam[k][j] = u_j for j < k and d[k+1] = u_k.
func (s *gso) addRow(k int) {
	t := new(big.Int)
	for j := 0; j <= k; j++ {
		u := dot(s.b[k], s.b[j])
		for i := 0; i < j; i++ {
			u.Mul(u, s.d[i+1])
			u.Sub(u, t.Mul(s.lam[k][i], s.lam[j][i]))
			u.Quo(u, s.d[i])
		}
		if j < k {
			s.lam[k][j] = u
		} else {
			if u.Sign() == 0 {
				panic(errDependent)
			}
			s.d[k+1] = u
		}
	}
}

// red size-reduces b_k against b_l when |mu_kl| > 1/2, i.e. when
// 2·|lam[k][l]| > d[l+1], by q = round(lam[k][l]/d[l+1]) with halves
// rounded away from zero.
func (s *gso) red(k, l int) {
	lam, dl := s.lam[k][l], s.d[l+1]
	q := new(big.Int).Abs(lam)
	q.Lsh(q, 1)
	if q.Cmp(dl) <= 0 {
		return
	}
	// |q| = floor((2·|lam| + d) / (2·d)).
	den := new(big.Int).Lsh(dl, 1)
	q.Add(q, dl)
	q.Quo(q, den)
	if lam.Sign() < 0 {
		q.Neg(q)
	}
	t := new(big.Int)
	for c := range s.b[k] {
		s.b[k][c].Sub(s.b[k][c], t.Mul(q, s.b[l][c]))
	}
	lam.Sub(lam, t.Mul(q, dl))
	for i := 0; i < l; i++ {
		s.lam[k][i].Sub(s.lam[k][i], t.Mul(q, s.lam[l][i]))
	}
}

// swap exchanges b_{k-1} and b_k and updates the data of rows up to
// kmax (Cohen 2.6.7, SWAPI); lam[k][k-1] is unchanged by the swap.
func (s *gso) swap(k, kmax int) {
	s.b[k-1], s.b[k] = s.b[k], s.b[k-1]
	for j := 0; j < k-1; j++ {
		s.lam[k-1][j], s.lam[k][j] = s.lam[k][j], s.lam[k-1][j]
	}
	lam := s.lam[k][k-1]
	// New d[k] = (d[k-1]·d[k+1] + lam²) / d[k].
	bNew := new(big.Int).Mul(s.d[k-1], s.d[k+1])
	bNew.Add(bNew, new(big.Int).Mul(lam, lam))
	bNew.Quo(bNew, s.d[k])
	t, u := new(big.Int), new(big.Int)
	for i := k + 1; i <= kmax; i++ {
		li := s.lam[i]
		t.Set(li[k])
		// lam[i][k] <- (d[k+1]·lam[i][k-1] − lam·t) / d[k]
		li[k].Mul(s.d[k+1], li[k-1])
		li[k].Sub(li[k], u.Mul(lam, t))
		li[k].Quo(li[k], s.d[k])
		// lam[i][k-1] <- (bNew·t + lam·lam[i][k]) / d[k+1]
		li[k-1].Mul(bNew, t)
		li[k-1].Add(li[k-1], u.Mul(lam, li[k]))
		li[k-1].Quo(li[k-1], s.d[k+1])
	}
	s.d[k] = bNew
}
