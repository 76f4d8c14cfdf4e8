package classify

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/xrand"
)

// treeNode is one node of a CART decision tree.
type treeNode struct {
	feature   int
	threshold float64
	left      *treeNode
	right     *treeNode
	// Leaf payload: class-1 probability.
	leaf bool
	prob float64
}

// Tree is a binary CART classifier (labels 0/1) trained on the Gini
// criterion.
type Tree struct {
	root        *treeNode
	maxDepth    int
	minLeaf     int
	maxFeatures int // features sampled per split (random forest mode)
	// scratch holds one node's (value, label) pairs during Train: sized
	// to the training set once and reused by every node's split search.
	scratch []sample
}

// sample is one training row's value on the feature being split, with
// the row's label.
type sample struct {
	v float64
	y int
}

// TreeConfig bundles decision-tree hyperparameters.
type TreeConfig struct {
	MaxDepth    int // default 12
	MinLeaf     int // default 2
	MaxFeatures int // 0 = all features
}

// NewTree creates an untrained tree.
func NewTree(cfg TreeConfig) *Tree {
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 12
	}
	if cfg.MinLeaf <= 0 {
		cfg.MinLeaf = 2
	}
	return &Tree{maxDepth: cfg.MaxDepth, minLeaf: cfg.MinLeaf, maxFeatures: cfg.MaxFeatures}
}

// Train fits the tree on x with 0/1 labels y.
func (t *Tree) Train(x [][]float64, y []int, rng *xrand.Rand) {
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	t.scratch = make([]sample, len(x))
	t.root = t.build(x, y, idx, 0, rng)
	t.scratch = nil
}

// build grows the subtree over rows idx. A feature's candidate
// thresholds are the midpoints (a+b)/2 of its distinct consecutive
// sorted values, and rows go left when value <= threshold. The split
// with the lowest weighted Gini wins, the first in (feature, threshold)
// order on ties.
//
// splitOn finds a feature's best split with one sort and one sweep. It
// sorts the non-NaN values once with their labels. Midpoints of sorted
// values never decrease (rounding is monotone), so one pointer sweeps
// forward over every value <= the current midpoint, keeping the left
// side's count and label sum. That also covers a midpoint that rounds
// up to the upper value (the value's whole run goes left) or overflows
// to ±Inf. NaN rows are never <= a threshold and always count on the
// right. The one NaN midpoint, (-Inf+Inf)/2, can only be the first
// candidate, since nothing sorts below -Inf; it leaves the left side
// empty, so minLeaf rejects it. reference_test.go keeps the quadratic
// rescan as the test oracle.
func (t *Tree) build(x [][]float64, y []int, idx []int, depth int, rng *xrand.Rand) *treeNode {
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
	for _, f := range features {
		if g, thr, ok := t.splitOn(x, y, idx, f, ones); ok && g < bestGini {
			bestGini, bestF, bestThr = g, f, thr
		}
	}
	if bestF < 0 {
		return &treeNode{leaf: true, prob: prob}
	}
	// Partition idx in place: the subtrees depend only on which rows
	// they get, not on their order.
	l, r := 0, len(idx)
	for l < r {
		if x[idx[l]][bestF] <= bestThr {
			l++
		} else {
			r--
			idx[l], idx[r] = idx[r], idx[l]
		}
	}
	return &treeNode{
		feature:   bestF,
		threshold: bestThr,
		left:      t.build(x, y, idx[:l], depth+1, rng),
		right:     t.build(x, y, idx[l:], depth+1, rng),
	}
}

// splitOn returns the lowest weighted Gini over feature f's candidate
// thresholds (the first on ties) and that threshold; ok is false when no
// threshold leaves minLeaf rows on each side. ones is the number of
// label-1 rows in idx.
func (t *Tree) splitOn(x [][]float64, y []int, idx []int, f, ones int) (bestGini, bestThr float64, ok bool) {
	s := t.scratch[:0]
	for _, i := range idx {
		if v := x[i][f]; !math.IsNaN(v) {
			s = append(s, sample{v, y[i]})
		}
	}
	slices.SortFunc(s, func(a, b sample) int { return cmp.Compare(a.v, b.v) })

	n := len(idx)
	bestGini = math.Inf(1)
	lt, lo := 0, 0
	for v := 1; v < len(s); v++ {
		if s[v].v == s[v-1].v {
			continue
		}
		thr := (s[v].v + s[v-1].v) / 2
		for lt < len(s) && s[lt].v <= thr {
			lo += s[lt].y
			lt++
		}
		rt, ro := n-lt, ones-lo
		if lt < t.minLeaf || rt < t.minLeaf {
			continue
		}
		g := gini(lo, lt)*float64(lt)/float64(n) + gini(ro, rt)*float64(rt)/float64(n)
		if g < bestGini {
			bestGini, bestThr, ok = g, thr, true
		}
	}
	return bestGini, bestThr, ok
}

func gini(ones, total int) float64 {
	if total == 0 {
		return 0
	}
	p := float64(ones) / float64(total)
	return 2 * p * (1 - p)
}

// Prob returns the class-1 probability for v.
func (t *Tree) Prob(v []float64) float64 {
	n := t.root
	for !n.leaf {
		if v[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.prob
}

// Predict returns the 0/1 prediction for v.
func (t *Tree) Predict(v []float64) int {
	if t.Prob(v) >= 0.5 {
		return 1
	}
	return 0
}

// Forest is a random forest of CART trees trained on bootstrap samples
// with per-split feature subsampling — the classifier the paper uses to
// label iteration boundaries (§7.3).
type Forest struct {
	trees []*Tree
}

// ForestConfig bundles random-forest hyperparameters.
type ForestConfig struct {
	Trees    int // default 30
	MaxDepth int // default 12
	MinLeaf  int // default 2
}

// NewForest creates an untrained forest.
func NewForest(cfg ForestConfig) *Forest {
	if cfg.Trees <= 0 {
		cfg.Trees = 30
	}
	f := &Forest{}
	for i := 0; i < cfg.Trees; i++ {
		f.trees = append(f.trees, NewTree(TreeConfig{MaxDepth: cfg.MaxDepth, MinLeaf: cfg.MinLeaf, MaxFeatures: -1}))
	}
	return f
}

// Train fits the forest on x with 0/1 labels y.
func (f *Forest) Train(x [][]float64, y []int, rng *xrand.Rand) {
	if len(x) == 0 {
		panic("classify: empty training set")
	}
	nf := len(x[0])
	mtry := int(math.Sqrt(float64(nf)))
	if mtry < 1 {
		mtry = 1
	}
	for _, t := range f.trees {
		t.maxFeatures = mtry
		// Bootstrap sample.
		bx := make([][]float64, len(x))
		by := make([]int, len(x))
		for i := range bx {
			j := rng.Intn(len(x))
			bx[i] = x[j]
			by[i] = y[j]
		}
		t.Train(bx, by, rng)
	}
}

// Prob returns the averaged class-1 probability for v.
func (f *Forest) Prob(v []float64) float64 {
	s := 0.0
	for _, t := range f.trees {
		s += t.Prob(v)
	}
	return s / float64(len(f.trees))
}

// Predict returns the 0/1 prediction for v.
func (f *Forest) Predict(v []float64) int {
	if f.Prob(v) >= 0.5 {
		return 1
	}
	return 0
}

// Metrics summarizes binary-classification quality.
type Metrics struct {
	TP, FP, TN, FN int
}

// Accuracy returns (TP+TN)/total.
func (m Metrics) Accuracy() float64 {
	t := m.TP + m.FP + m.TN + m.FN
	if t == 0 {
		return 0
	}
	return float64(m.TP+m.TN) / float64(t)
}

// FalsePositiveRate returns FP/(FP+TN).
func (m Metrics) FalsePositiveRate() float64 {
	if m.FP+m.TN == 0 {
		return 0
	}
	return float64(m.FP) / float64(m.FP+m.TN)
}

// FalseNegativeRate returns FN/(FN+TP).
func (m Metrics) FalseNegativeRate() float64 {
	if m.FN+m.TP == 0 {
		return 0
	}
	return float64(m.FN) / float64(m.FN+m.TP)
}

// Evaluate scores a 0/1 predictor against labels.
func Evaluate(pred func([]float64) int, x [][]float64, y []int) Metrics {
	var m Metrics
	for i := range x {
		p := pred(x[i])
		switch {
		case p == 1 && y[i] == 1:
			m.TP++
		case p == 1 && y[i] == 0:
			m.FP++
		case p == 0 && y[i] == 0:
			m.TN++
		default:
			m.FN++
		}
	}
	return m
}

// Split partitions a data set into train and validation subsets, holding
// out `holdFrac` of the samples (the paper withholds 30%).
func Split(x [][]float64, y []int, holdFrac float64, rng *xrand.Rand) (tx [][]float64, ty []int, vx [][]float64, vy []int) {
	perm := rng.Perm(len(x))
	hold := int(holdFrac * float64(len(x)))
	for i, j := range perm {
		if i < hold {
			vx = append(vx, x[j])
			vy = append(vy, y[j])
		} else {
			tx = append(tx, x[j])
			ty = append(ty, y[j])
		}
	}
	return
}
