package classify

import (
	"math"
	"sort"

	"repro/internal/xrand"
)

// refTrain fits t with refBuild: the original quadratic CART split
// search, kept verbatim as the oracle for build's sort-and-sweep. It
// must never be used outside tests.
func refTrain(t *Tree, x [][]float64, y []int, rng *xrand.Rand) {
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	t.root = refBuild(t, x, y, idx, 0, rng)
}

// refBuild rescans idx for every candidate threshold: O(n²) per node.
func refBuild(t *Tree, x [][]float64, y []int, idx []int, depth int, rng *xrand.Rand) *treeNode {
	ones := 0
	for _, i := range idx {
		ones += y[i]
	}
	prob := float64(ones) / float64(len(idx))
	if depth >= t.maxDepth || len(idx) < 2*t.minLeaf || ones == 0 || ones == len(idx) {
		return &treeNode{leaf: true, prob: prob}
	}

	nf := len(x[0])
	features := make([]int, nf)
	for i := range features {
		features[i] = i
	}
	if t.maxFeatures > 0 && t.maxFeatures < nf {
		rng.ShuffleInts(features)
		features = features[:t.maxFeatures]
	}

	bestGini := math.Inf(1)
	bestF, bestThr := -1, 0.0
	vals := make([]float64, 0, len(idx))
	for _, f := range features {
		vals = vals[:0]
		for _, i := range idx {
			vals = append(vals, x[i][f])
		}
		sort.Float64s(vals)
		// Candidate thresholds: midpoints of distinct consecutive values.
		for v := 1; v < len(vals); v++ {
			if vals[v] == vals[v-1] {
				continue
			}
			thr := (vals[v] + vals[v-1]) / 2
			lo, lt, ro, rt := 0, 0, 0, 0
			for _, i := range idx {
				if x[i][f] <= thr {
					lt++
					lo += y[i]
				} else {
					rt++
					ro += y[i]
				}
			}
			if lt < t.minLeaf || rt < t.minLeaf {
				continue
			}
			g := gini(lo, lt)*float64(lt)/float64(len(idx)) + gini(ro, rt)*float64(rt)/float64(len(idx))
			if g < bestGini {
				bestGini, bestF, bestThr = g, f, thr
			}
		}
	}
	if bestF < 0 {
		return &treeNode{leaf: true, prob: prob}
	}
	var li, ri []int
	for _, i := range idx {
		if x[i][bestF] <= bestThr {
			li = append(li, i)
		} else {
			ri = append(ri, i)
		}
	}
	return &treeNode{
		feature:   bestF,
		threshold: bestThr,
		left:      refBuild(t, x, y, li, depth+1, rng),
		right:     refBuild(t, x, y, ri, depth+1, rng),
	}
}

// refForestTrain fits f as Forest.Train did before presorting: for each
// tree, gather a bootstrap sample row by row, then fit it with refTrain.
func refForestTrain(f *Forest, x [][]float64, y []int, rng *xrand.Rand) {
	mtry := max(1, int(math.Sqrt(float64(len(x[0])))))
	for _, t := range f.trees {
		t.maxFeatures = mtry
		bx := make([][]float64, len(x))
		by := make([]int, len(x))
		for i := range bx {
			j := rng.Intn(len(x))
			bx[i] = x[j]
			by[i] = y[j]
		}
		refTrain(t, bx, by, rng)
	}
}
