package ml

import (
	"math"
	"math/rand"
	"testing"

	"perspectron/internal/eval"
)

// model is the train/score contract every baseline meets.
type model = eval.Model[[]float64]

// named labels a table row with the baseline's Table IV name.
type named struct {
	name string
	c    model
}

// predict thresholds a score into a ±1 label at 0.
func predict(c model, x []float64) float64 {
	if c.Score(x) >= 0 {
		return 1
	}
	return -1
}

// linear builds a noisy linearly separable dataset: class = sign(x0 - x1).
func linear(n int, r *rand.Rand) (X [][]float64, y []float64) {
	for i := 0; i < n; i++ {
		a, b := r.Float64(), r.Float64()
		if math.Abs(a-b) < 0.1 {
			continue // margin
		}
		X = append(X, []float64{a, b, r.Float64()})
		if a > b {
			y = append(y, 1)
		} else {
			y = append(y, -1)
		}
	}
	return X, y
}

// xor builds the canonical non-linearly-separable dataset.
func xor(n int, r *rand.Rand) (X [][]float64, y []float64) {
	for i := 0; i < n; i++ {
		a, b := float64(r.Intn(2)), float64(r.Intn(2))
		X = append(X, []float64{a, b})
		if a != b {
			y = append(y, 1)
		} else {
			y = append(y, -1)
		}
	}
	return X, y
}

func accuracy(c model, X [][]float64, y []float64) float64 {
	ok := 0
	for i, x := range X {
		if predict(c, x) == y[i] {
			ok++
		}
	}
	return float64(ok) / float64(len(X))
}

func classifiers() []named {
	return []named{
		{"DT-CART", NewCART()},
		{"LogisticRegression", NewLogReg()},
		{"KNN", NewKNN()},
		{"NeuralNetwork", NewMLP()},
	}
}

func TestAllLearnLinear(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	X, y := linear(600, r)
	train, trainY := X[:400], y[:400]
	test, testY := X[400:], y[400:]
	for _, m := range classifiers() {
		m.c.Fit(train, trainY)
		if acc := accuracy(m.c, test, testY); acc < 0.9 {
			t.Errorf("%s linear accuracy = %.3f", m.name, acc)
		}
	}
}

func TestTreeAndMLPLearnXOR(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	X, y := xor(400, r)
	for _, m := range []named{{"DT-CART", NewCART()}, {"NeuralNetwork", NewMLP()}, {"KNN", NewKNN()}} {
		m.c.Fit(X, y)
		if acc := accuracy(m.c, X, y); acc < 0.95 {
			t.Errorf("%s XOR accuracy = %.3f", m.name, acc)
		}
	}
}

func TestLogRegCannotLearnXOR(t *testing.T) {
	// Sanity: a linear model stays near chance on XOR — this is exactly
	// why the paper's k-sparse mapping matters for the perceptron.
	r := rand.New(rand.NewSource(3))
	X, y := xor(400, r)
	lr := NewLogReg()
	lr.Fit(X, y)
	// A linear separator can classify at most 3 of the 4 XOR corners.
	if acc := accuracy(lr, X, y); acc > 0.85 {
		t.Fatalf("logistic regression implausibly solved XOR: %.3f", acc)
	}
}

func TestCARTDepthBounded(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	X, y := linear(500, r)
	c := NewCART()
	c.MaxDepth = 3
	c.Fit(X, y)
	if d := treeDepth(c); d > 3 {
		t.Fatalf("tree depth %d exceeds max 3", d)
	}
}

func TestCARTPureLeafStopsEarly(t *testing.T) {
	X := [][]float64{{0}, {0.1}, {0.2}, {0.9}, {1.0}, {0.95}}
	y := []float64{-1, -1, -1, 1, 1, 1}
	c := NewCART()
	c.MinLeafSize = 1
	c.Fit(X, y)
	if acc := accuracy(c, X, y); acc != 1 {
		t.Fatalf("accuracy on trivially separable data = %v", acc)
	}
}

func TestKNNExactNeighbours(t *testing.T) {
	k := NewKNN()
	k.K = 1
	k.Fit([][]float64{{0, 0}, {1, 1}}, []float64{-1, 1})
	if predict(k, []float64{0.1, 0.1}) != -1 {
		t.Fatalf("1-NN picked the wrong neighbour")
	}
	if predict(k, []float64{0.9, 0.9}) != 1 {
		t.Fatalf("1-NN picked the wrong neighbour")
	}
}

func TestScoresBeforeFit(t *testing.T) {
	for _, m := range classifiers() {
		if s := m.c.Score([]float64{1, 2, 3}); s != 0 {
			t.Errorf("%s unfitted score = %v", m.name, s)
		}
	}
}

func TestMLPDeterministicWithSeed(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	X, y := linear(200, r)
	a, b := NewMLP(), NewMLP()
	a.Fit(X, y)
	b.Fit(X, y)
	for i, x := range X {
		if a.Score(x) != b.Score(x) {
			t.Fatalf("MLP nondeterministic at sample %d", i)
		}
	}
}

// treeDepth returns a grown tree's depth.
func treeDepth(c *CART) int {
	var d func(*cartNode) int
	d = func(n *cartNode) int {
		if n == nil || n.leaf {
			return 0
		}
		l, r := d(n.left), d(n.right)
		if l > r {
			return l + 1
		}
		return r + 1
	}
	return d(c.root)
}
