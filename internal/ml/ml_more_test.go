package ml

import (
	"math"
	"math/rand"
	"testing"
)

func TestCARTMinLeafStopsSplitting(t *testing.T) {
	c := NewCART()
	c.MinLeafSize = 100
	X := [][]float64{{0}, {1}, {0}, {1}}
	y := []float64{-1, 1, -1, 1}
	c.Fit(X, y)
	if treeDepth(c) != 0 {
		t.Fatalf("tree split below MinLeafSize (depth %d)", treeDepth(c))
	}
}

func TestCARTSingleClassLeaf(t *testing.T) {
	c := NewCART()
	X := [][]float64{{0.1}, {0.2}, {0.3}}
	y := []float64{1, 1, 1}
	c.Fit(X, y)
	if predict(c, []float64{0.5}) != 1 {
		t.Fatalf("pure-class tree mispredicts")
	}
}

func TestCARTScoreIsLeafPurity(t *testing.T) {
	c := NewCART()
	c.MinLeafSize = 1
	X := [][]float64{{0}, {0.1}, {0.9}, {1}}
	y := []float64{-1, -1, 1, 1}
	c.Fit(X, y)
	if s := c.Score([]float64{0}); s != -1 {
		t.Fatalf("pure negative leaf score = %v", s)
	}
	if s := c.Score([]float64{1}); s != 1 {
		t.Fatalf("pure positive leaf score = %v", s)
	}
}

func TestLogRegL2ShrinksWeights(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	X, y := linear(400, r)
	small := NewLogReg()
	small.L2 = 0
	small.Fit(X, y)
	big := NewLogReg()
	big.L2 = 1.0
	big.Fit(X, y)
	normOf := func(l *LogReg) float64 {
		var n float64
		for _, w := range l.w {
			n += w * w
		}
		return math.Sqrt(n)
	}
	if normOf(big) >= normOf(small) {
		t.Fatalf("regularization did not shrink weights: %v vs %v",
			normOf(big), normOf(small))
	}
}

func TestKNNKLargerThanTrainingSet(t *testing.T) {
	k := NewKNN()
	k.K = 100
	k.Fit([][]float64{{0}, {1}}, []float64{-1, 1})
	// Mean of the two labels is 0; predict rounds to +1 at >= 0.
	if got := k.Score([]float64{0.5}); got != 0 {
		t.Fatalf("score with K > n = %v", got)
	}
}

func TestKNNZeroKDefaults(t *testing.T) {
	k := NewKNN()
	k.K = 0
	k.Fit([][]float64{{0}, {0.1}, {1}}, []float64{-1, -1, 1})
	if predict(k, []float64{0.05}) != -1 {
		t.Fatalf("zero K did not default sanely")
	}
}

func TestMLPHiddenSizeAffectsCapacity(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	X, y := xor(400, r)
	tiny := NewMLP()
	tiny.Hidden = 1 // too small for XOR
	tiny.Fit(X, y)
	full := NewMLP()
	full.Fit(X, y)
	if accuracy(full, X, y) <= accuracy(tiny, X, y)-0.05 {
		t.Fatalf("larger hidden layer did not help: %v vs %v",
			accuracy(full, X, y), accuracy(tiny, X, y))
	}
}

func TestEmptyFit(t *testing.T) {
	for _, m := range classifiers() {
		m.c.Fit(nil, nil) // must not panic
		if s := m.c.Score([]float64{1}); s != 0 {
			t.Fatalf("%s scores %v after empty fit", m.name, s)
		}
	}
}
