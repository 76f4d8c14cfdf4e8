package classify

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/xrand"
)

// specials are the float values a fuzz input reaches with one byte: the
// edges of the split search (NaN rows, infinite and overflowing
// midpoints, signed zeros, subnormal and adjacent-float midpoints that
// round onto one of their endpoints).
var specials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1),
	math.MaxFloat64, -math.MaxFloat64, 0.75 * math.MaxFloat64, -0.75 * math.MaxFloat64,
	math.SmallestNonzeroFloat64, 2 * math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Copysign(0, -1), 0,
	1, math.Nextafter(1, 2), math.Nextafter(math.Nextafter(1, 2), 2), math.Nextafter(1, 0),
	0x1p-1022, math.Nextafter(0x1p-1022, 0),
}

// Value tokens: below tokSpecial a byte is a small, tie-prone value in
// [-2, 1.75]; [tokSpecial, tokSpecial+len(specials)) picks a special;
// from tokRaw on, the next 8 bytes are IEEE-754 bits (little endian).
const (
	tokSpecial  = 0xC0
	tokRaw      = 0xF0
	maxFuzzRows = 300
)

// decodeTreeInput turns fuzz bytes into a tree configuration, a seed and
// a training set: a 5-byte header (features, MinLeaf, MaxDepth,
// MaxFeatures, seed), then rows of one label byte (low bit) followed by
// one value token per feature.
func decodeTreeInput(data []byte) (cfg TreeConfig, seed uint64, x [][]float64, y []int, ok bool) {
	if len(data) < 5 {
		return cfg, 0, nil, nil, false
	}
	nf := 1 + int(data[0]%5)
	cfg = TreeConfig{
		MinLeaf:     1 + int(data[1]%3),
		MaxDepth:    1 + int(data[2]%12),
		MaxFeatures: int(data[3]) % (nf + 1),
	}
	seed = uint64(data[4])
	data = data[5:]
	for len(data) > 0 && len(x) < maxFuzzRows {
		label := int(data[0] & 1)
		data = data[1:]
		row := make([]float64, nf)
		for f := range row {
			if len(data) == 0 {
				break
			}
			b := data[0]
			data = data[1:]
			switch {
			case b < tokSpecial:
				row[f] = float64(int(b&15)-8) / 4
			case b < tokRaw:
				row[f] = specials[int(b-tokSpecial)%len(specials)]
			default:
				var raw [8]byte
				data = data[copy(raw[:], data):]
				row[f] = math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
			}
		}
		x = append(x, row)
		y = append(y, label)
	}
	return cfg, seed, x, y, len(x) > 0
}

// diffTree reports the first structural difference between two trees
// (feature, threshold bits, leaf probability bits), or "" if none.
func diffTree(a, b *treeNode, path string) string {
	switch {
	case a.leaf != b.leaf:
		return fmt.Sprintf("%s: leaf %v vs %v", path, a.leaf, b.leaf)
	case a.leaf:
		if math.Float64bits(a.prob) != math.Float64bits(b.prob) {
			return fmt.Sprintf("%s: prob %v vs %v", path, a.prob, b.prob)
		}
		return ""
	case a.feature != b.feature || math.Float64bits(a.threshold) != math.Float64bits(b.threshold):
		return fmt.Sprintf("%s: split x[%d] <= %v vs x[%d] <= %v", path, a.feature, a.threshold, b.feature, b.threshold)
	}
	if d := diffTree(a.left, b.left, path+"L"); d != "" {
		return d
	}
	return diffTree(a.right, b.right, path+"R")
}

// checkTreeMatchesReference trains one tree with build and one with the
// reference search from identically seeded rngs, and fails on any
// difference in structure, in Prob on a training row, or in the number
// of rng draws consumed.
func checkTreeMatchesReference(t *testing.T, cfg TreeConfig, seed uint64, x [][]float64, y []int) {
	t.Helper()
	fast, ref := NewTree(cfg), NewTree(cfg)
	fastRng, refRng := xrand.New(seed), xrand.New(seed)
	fast.Train(x, y, fastRng)
	refTrain(ref, x, y, refRng)
	if d := diffTree(fast.root, ref.root, "root"); d != "" {
		t.Fatalf("tree differs from reference at %s", d)
	}
	for i, row := range x {
		if fp, rp := fast.Prob(row), ref.Prob(row); math.Float64bits(fp) != math.Float64bits(rp) {
			t.Fatalf("Prob(row %d) = %v, reference %v", i, fp, rp)
		}
	}
	if fastRng.Uint64() != refRng.Uint64() {
		t.Fatal("rng stream diverged from reference (different number of draws)")
	}
}

// FuzzTreeMatchesReference licenses build's sort-and-sweep split search
// against the verbatim quadratic scan in reference_test.go. The seed
// corpus in testdata/fuzz/ covers ties, NaN, ±Inf, overflowing
// ±MaxFloat64 midpoints, subnormals and adjacent-float midpoints.
func FuzzTreeMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, seed, x, y, ok := decodeTreeInput(data)
		if !ok {
			return
		}
		checkTreeMatchesReference(t, cfg, seed, x, y)
	})
}

// FuzzForestMatchesReference licenses Forest.Train's presorted fit
// (bootstrap multiplicities expanded into sorted columns, stably
// partitioned down each tree) against per-tree bootstrap gathering and
// the quadratic reference search. Header byte 3, which a forest does not
// read as MaxFeatures, picks 1-4 trees. The seed corpus in testdata/fuzz/
// covers NaN rows, signed zeros, infinities and heavy bootstrap
// duplication.
func FuzzForestMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, seed, x, y, ok := decodeTreeInput(data)
		if !ok {
			return
		}
		fc := ForestConfig{Trees: 1 + int(data[3]%4), MaxDepth: cfg.MaxDepth, MinLeaf: cfg.MinLeaf}
		fast, ref := NewForest(fc), NewForest(fc)
		fastRng, refRng := xrand.New(seed), xrand.New(seed)
		fast.Train(x, y, fastRng)
		refForestTrain(ref, x, y, refRng)
		for i := range fast.trees {
			if d := diffTree(fast.trees[i].root, ref.trees[i].root, "root"); d != "" {
				t.Fatalf("tree %d differs from reference at %s", i, d)
			}
		}
		for i, row := range x {
			if fp, rp := fast.Prob(row), ref.Prob(row); math.Float64bits(fp) != math.Float64bits(rp) {
				t.Fatalf("Prob(row %d) = %v, reference %v", i, fp, rp)
			}
		}
		if fastRng.Uint64() != refRng.Uint64() {
			t.Fatal("rng stream diverged from reference (different number of draws)")
		}
	})
}

// TestTreeMatchesReferenceAtScale checks one random-forest-mode tree at
// the extractor's shape (5 continuous features, 2 sampled per split,
// depth 10) on more rows than the fuzz inputs reach.
func TestTreeMatchesReferenceAtScale(t *testing.T) {
	rng := xrand.New(8)
	var x [][]float64
	var y []int
	for i := 0; i < 1500; i++ {
		row := make([]float64, 5)
		for f := range row {
			row[f] = math.Min(3, math.Abs(rng.Norm(1, 0.6)))
		}
		x = append(x, row)
		lbl := 0
		if math.Abs(row[0]-1) < 0.2 && rng.Float64() < 0.9 {
			lbl = 1
		}
		y = append(y, lbl)
	}
	checkTreeMatchesReference(t, TreeConfig{MaxDepth: 10, MaxFeatures: 2}, 9, x, y)
}
