package lattice

import "testing"

// decodeBasis turns fuzz bytes into a basis of 2..8 rows and up to two
// more columns than rows. Each entry is a header byte (low 6 bits: the
// magnitude's length in bytes, bit 6: negative) followed by that many
// big-endian magnitude bytes; missing bytes read as zero.
func decodeBasis(data []byte) Basis {
	if len(data) < 2 {
		return nil
	}
	rows := 2 + int(data[0]%7)
	cols := rows + int(data[1]%3)
	data = data[2:]
	b := NewBasis(rows, cols)
	for _, row := range b {
		for _, e := range row {
			if len(data) == 0 {
				return b
			}
			h := data[0]
			n := min(int(h&63), len(data)-1)
			e.SetBytes(data[1 : 1+n])
			if h&64 != 0 {
				e.Neg(e)
			}
			data = data[1+n:]
		}
	}
	return b
}

// independent reports whether b's rows are linearly independent: no
// Gram–Schmidt vector vanishes.
func independent(b Basis) bool {
	_, B := testGSO(b)
	for _, v := range B {
		if v.Sign() == 0 {
			return false
		}
	}
	return true
}

// FuzzLLLMatchesRational licenses LLL's integral algorithm against the
// verbatim exact-rational LLL in reference_test.go: on every linearly
// independent basis the two reduced bases must be equal entry for
// entry. The seed corpus in testdata/fuzz/ includes HNP bases built
// from sect163 signatures (5 leaks, dimension 7), with honest and
// misread nonce bits.
func FuzzLLLMatchesRational(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		b := decodeBasis(data)
		if b == nil || !independent(b) {
			return // dependent rows are outside LLL's contract
		}
		fast, ref := b.Clone(), b.Clone()
		LLL(fast)
		rationalLLL(ref)
		for i := range fast {
			for j := range fast[i] {
				if fast[i][j].Cmp(ref[i][j]) != 0 {
					t.Fatalf("reduced basis differs at [%d][%d]:\n got  %v\n want %v", i, j, fast, ref)
				}
			}
		}
	})
}

// TestLLLRejectsDependentRows: rows outside the independence contract
// panic instead of returning a meaningless basis.
func TestLLLRejectsDependentRows(t *testing.T) {
	for _, b := range []Basis{
		{intRow(1, 2, 3), intRow(2, 4, 6), intRow(0, 0, 1)},
		{intRow(0, 0), intRow(1, 1)},
		{intRow(3, 1), intRow(1, 1), intRow(5, 7)},
	} {
		func() {
			defer func() {
				if r := recover(); r != errDependent {
					t.Fatalf("LLL(%v) recovered %v, want %v", b, r, errDependent)
				}
			}()
			LLL(b)
		}()
	}
}
