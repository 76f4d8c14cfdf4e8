package classify

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

// ring generates two classes: points inside a disc (label -1/0) and on a
// ring around it (label +1/1) — separable by a polynomial/RBF kernel but
// not linearly.
func ring(n int, rng *xrand.Rand) (x [][]float64, ysvm []float64, ybin []int) {
	for i := 0; i < n; i++ {
		ang := rng.Float64() * 2 * math.Pi
		var r float64
		lbl := i%2 == 0
		if lbl {
			r = 2 + rng.Float64()*0.5
		} else {
			r = rng.Float64() * 0.8
		}
		x = append(x, []float64{r * math.Cos(ang), r * math.Sin(ang)})
		if lbl {
			ysvm = append(ysvm, 1)
			ybin = append(ybin, 1)
		} else {
			ysvm = append(ysvm, -1)
			ybin = append(ybin, 0)
		}
	}
	return
}

func TestSVMPolySeparatesRing(t *testing.T) {
	rng := xrand.New(1)
	x, y, _ := ring(200, rng)
	svm := NewSVM(SVMConfig{Kernel: PolyKernel(2, 1, 1), C: 10})
	svm.Train(x, y, rng)
	vx, vy, _ := ring(100, rng)
	correct := 0
	for i := range vx {
		if svm.Predict(vx[i]) == vy[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(vx)); acc < 0.95 {
		t.Fatalf("poly SVM accuracy %.2f, want >= 0.95", acc)
	}
	if len(svm.vecs) == 0 {
		t.Fatal("no support vectors retained")
	}
}

func TestSVMLinearSeparatesHalfplanes(t *testing.T) {
	rng := xrand.New(2)
	var x [][]float64
	var y []float64
	for i := 0; i < 150; i++ {
		a := rng.Norm(0, 1)
		b := rng.Norm(0, 1)
		if i%2 == 0 {
			x = append(x, []float64{a + 3, b})
			y = append(y, 1)
		} else {
			x = append(x, []float64{a - 3, b})
			y = append(y, -1)
		}
	}
	svm := NewSVM(SVMConfig{Kernel: dot, C: 1})
	svm.Train(x, y, rng)
	correct := 0
	for i := range x {
		if svm.Predict(x[i]) == y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(x)); acc < 0.97 {
		t.Fatalf("linear SVM accuracy %.2f", acc)
	}
}

func TestForestSeparatesRing(t *testing.T) {
	rng := xrand.New(3)
	x, _, y := ring(300, rng)
	f := NewForest(ForestConfig{Trees: 20})
	f.Train(x, y, rng)
	vx, _, vy := ring(150, rng)
	m := Evaluate(f.Predict, vx, vy)
	if acc := float64(m.TP+m.TN) / float64(len(vx)); acc < 0.93 {
		t.Fatalf("forest accuracy %.2f, want >= 0.93", acc)
	}
}

func TestTreePureLeaves(t *testing.T) {
	rng := xrand.New(4)
	x := [][]float64{{0}, {1}, {2}, {10}, {11}, {12}}
	y := []int{0, 0, 0, 1, 1, 1}
	tr := NewTree(TreeConfig{MinLeaf: 1})
	tr.Train(x, y, rng)
	for i := range x {
		if tr.Predict(x[i]) != y[i] {
			t.Fatalf("tree misclassifies trivially separable point %v", x[i])
		}
	}
}

func TestMetrics(t *testing.T) {
	m := Metrics{TP: 8, FP: 1, TN: 9, FN: 2}
	if fpr := m.FalsePositiveRate(); math.Abs(fpr-0.1) > 1e-9 {
		t.Fatalf("fpr = %v", fpr)
	}
	if fnr := m.FalseNegativeRate(); math.Abs(fnr-0.2) > 1e-9 {
		t.Fatalf("fnr = %v", fnr)
	}
}

func TestSplitHoldsOutFraction(t *testing.T) {
	rng := xrand.New(5)
	x := make([][]float64, 100)
	y := make([]int, 100)
	for i := range x {
		x[i] = []float64{float64(i)}
		y[i] = i % 2
	}
	tx, ty, vx, vy := Split(x, y, 0.3, rng)
	if len(vx) != 30 || len(tx) != 70 || len(ty) != 70 || len(vy) != 30 {
		t.Fatalf("split sizes: train=%d val=%d", len(tx), len(vx))
	}
	seen := map[float64]bool{}
	for _, v := range append(append([][]float64{}, tx...), vx...) {
		if seen[v[0]] {
			t.Fatal("split duplicated a sample")
		}
		seen[v[0]] = true
	}
}
