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
	mult := make([]int32, len(x))
	for i := range mult {
		mult[i] = 1
	}
	newFitter(x, y).grow(t, mult, rng)
}

// fitter fits trees on one training set. It sorts each feature's rows
// once, so no tree node sorts anything, and sizes its buffers once for
// every node and every tree.
type fitter struct {
	vals [][]float64 // vals[f][r] = x[r][f]
	y    []int
	// order[f] lists the rows with a non-NaN vals[f] in ascending order
	// of value, then the rows where it is NaN.
	order [][]int32

	// One tree's fit: cols[f] holds its rows in order[f]'s order.
	t        *Tree
	rng      *xrand.Rand
	cols     [][]entry
	buf      []entry // stable-partition scratch
	mark     []int32 // mark[row] == stamp: row goes left at this split
	stamp    int32
	features []int
}

// entry is one training row in a feature's sorted column: the row's
// value on that feature, its 0/1 label and its id.
type entry struct {
	v   float64
	y   int32
	row int32
}

// newFitter builds the column-major copy of x and each feature's row
// order. Rows are named by int32 ids, so x may hold at most MaxInt32
// rows.
func newFitter(x [][]float64, y []int) *fitter {
	if len(x) > math.MaxInt32 {
		panic("classify: training set too large")
	}
	nf := 0
	if len(x) > 0 {
		nf = len(x[0])
	}
	g := &fitter{
		vals: make([][]float64, nf), y: y, order: make([][]int32, nf),
		cols: make([][]entry, nf), mark: make([]int32, len(x)), features: make([]int, nf),
	}
	for f := range g.vals {
		v := make([]float64, len(x))
		for r, row := range x {
			v[r] = row[f]
		}
		order := make([]int32, 0, len(x))
		for r := range v {
			if !math.IsNaN(v[r]) {
				order = append(order, int32(r))
			}
		}
		slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(v[a], v[b]) })
		for r := range v {
			if math.IsNaN(v[r]) {
				order = append(order, int32(r))
			}
		}
		g.vals[f], g.order[f] = v, order
	}
	return g
}

// grow fits t on the training rows taken mult[r] times each (a
// bootstrap sample, or every row once). Each column expands its
// feature's order by the multiplicities, a counting pass that needs no
// sort.
func (g *fitter) grow(t *Tree, mult []int32, rng *xrand.Rand) {
	n, ones := 0, 0
	for r, m := range mult {
		n += int(m)
		ones += int(m) * g.y[r]
	}
	for f, order := range g.order {
		col, vals := g.cols[f][:0], g.vals[f]
		for _, r := range order {
			e := entry{vals[r], int32(g.y[r]), r}
			for m := mult[r]; m > 0; m-- {
				col = append(col, e)
			}
		}
		g.cols[f] = col
	}
	if cap(g.buf) < n {
		g.buf = make([]entry, n)
	}
	clear(g.mark)
	g.t, g.rng, g.stamp = t, rng, 0
	t.root = g.build(0, n, ones, 0)
}

// build grows the subtree over the rows in segment [a, b) of every
// column; ones of them are labelled 1. A feature's candidate thresholds
// are the midpoints (u+v)/2 of its distinct consecutive sorted values,
// and rows go left when value <= threshold. The split with the lowest
// weighted Gini wins, the first in (feature, threshold) order on ties.
//
// The columns are presorted: every node's segment of a column holds its
// rows' non-NaN values in ascending order, then its NaN rows. splitOn
// sweeps that segment in place. After the split, the best feature's
// segment is already partitioned (the rows <= threshold are a prefix),
// and every other column is stable-partitioned through one scratch
// buffer, so both children's segments stay sorted. The trees are the
// ones a per-node sort would give: that sort sees the same multiset of
// (value, label) pairs, and the orders can differ only within a run of
// equal values (ties, or -0 beside +0). The sweep sums labels over whole
// runs and reads values only at a run's edge, as a midpoint (u+v)/2 of
// two unequal values, where a signed zero adds to a non-zero value
// (u ± 0 == u), so no threshold bit and no count changes.
func (g *fitter) build(a, b, ones, depth int) *treeNode {
	t, n := g.t, b-a
	prob := float64(ones) / float64(n)
	if depth >= t.maxDepth || n < 2*t.minLeaf || ones == 0 || ones == n {
		return &treeNode{leaf: true, prob: prob}
	}

	features := g.features
	for i := range features {
		features[i] = i
	}
	if t.maxFeatures > 0 && t.maxFeatures < len(features) {
		g.rng.ShuffleInts(features)
		features = features[:t.maxFeatures]
	}

	bestGini := math.Inf(1)
	bestF, bestThr := -1, 0.0
	for _, f := range features {
		if gi, thr, ok := t.splitOn(g.cols[f][a:b], ones); ok && gi < bestGini {
			bestGini, bestF, bestThr = gi, f, thr
		}
	}
	if bestF < 0 {
		return &treeNode{leaf: true, prob: prob}
	}
	// The rows x[r][bestF] <= bestThr are a prefix of bestF's segment.
	g.stamp++
	nl, lo := 0, 0
	for _, e := range g.cols[bestF][a:b] {
		if !(e.v <= bestThr) {
			break
		}
		g.mark[e.row] = g.stamp
		nl++
		lo += int(e.y)
	}
	for f := range g.cols {
		if f != bestF {
			g.partition(g.cols[f][a:b])
		}
	}
	return &treeNode{
		feature:   bestF,
		threshold: bestThr,
		left:      g.build(a, a+nl, lo, depth+1),
		right:     g.build(a+nl, b, ones-lo, depth+1),
	}
}

// partition stably moves seg's rows marked left to its front.
func (g *fitter) partition(seg []entry) {
	l, right := 0, g.buf[:0]
	for _, e := range seg {
		if g.mark[e.row] == g.stamp {
			seg[l] = e
			l++
		} else {
			right = append(right, e)
		}
	}
	copy(seg[l:], right)
}

// splitOn returns the lowest weighted Gini over the thresholds of one
// node's sorted column segment s (the first on ties) and that threshold;
// ok is false when no threshold leaves minLeaf rows on each side. ones
// is the number of label-1 rows in s.
//
// Midpoints of sorted values never decrease (rounding is monotone), so
// one pointer sweeps forward over every value <= the current midpoint,
// keeping the left side's count and label sum. That also covers a
// midpoint that rounds up to the upper value (the value's whole run
// goes left) or overflows to ±Inf. NaN rows are never <= a threshold
// and always count on the right. The one NaN midpoint, (-Inf+Inf)/2,
// can only be the first candidate, since nothing sorts below -Inf; it
// leaves the left side empty, so minLeaf rejects it. reference_test.go
// keeps the quadratic rescan as the test oracle.
func (t *Tree) splitOn(s []entry, ones int) (bestGini, bestThr float64, ok bool) {
	n := len(s)
	for len(s) > 0 && math.IsNaN(s[len(s)-1].v) {
		s = s[:len(s)-1]
	}
	bestGini = math.Inf(1)
	lt, lo := 0, 0
	for v := 1; v < len(s); v++ {
		if s[v].v == s[v-1].v {
			continue
		}
		thr := (s[v].v + s[v-1].v) / 2
		for lt < len(s) && s[lt].v <= thr {
			lo += int(s[lt].y)
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
	g := newFitter(x, y)
	mult := make([]int32, len(x))
	for _, t := range f.trees {
		t.maxFeatures = mtry
		// Bootstrap sample: the same draws, in the same order, as
		// gathering it row by row.
		clear(mult)
		for range x {
			mult[rng.Intn(len(x))]++
		}
		g.grow(t, mult, rng)
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
