package perceptron

import (
	"math/rand"
	"testing"

	"perspectron/internal/encoding"
)

// threeClassData builds separable data: class i has bit i set plus noise in
// the upper bits.
func threeClassData(n int, r *rand.Rand) (X [][]float64, labels []string) {
	names := []string{"a", "b", "c"}
	for i := 0; i < n; i++ {
		c := r.Intn(3)
		row := make([]float64, 8)
		row[c] = 1
		for j := 3; j < 8; j++ {
			row[j] = float64(r.Intn(2))
		}
		X = append(X, row)
		labels = append(labels, names[c])
	}
	return X, labels
}

func TestMultiClassLearnsSeparable(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	X, labels := threeClassData(300, r)
	m := NewMultiClass([]string{"a", "b", "c"}, 8, DefaultConfig())
	Xp := encoding.PackRows(X)
	m.Fit(Xp, labels)
	errs := 0
	for i, x := range Xp {
		if got, _ := m.Predict(x); got != labels[i] {
			errs++
		}
	}
	if float64(errs)/float64(len(X)) > 0.02 {
		t.Fatalf("multiclass training error %d/%d", errs, len(X))
	}
}

func TestMultiClassSeedsDiffer(t *testing.T) {
	m := NewMultiClass([]string{"x", "y"}, 4, DefaultConfig())
	// Per-class detectors must not share shuffle seeds (they would be
	// identical after symmetric training).
	if m.Detectors[0].cfg.Seed == m.Detectors[1].cfg.Seed {
		t.Fatalf("detector seeds identical")
	}
}

func TestConfusionF1Perfect(t *testing.T) {
	c := NewConfusion([]string{"a", "b"})
	for i := 0; i < 10; i++ {
		c.Add("a", "a")
		c.Add("b", "b")
	}
	if c.F1("a") != 1 || c.F1("b") != 1 || c.MacroF1() != 1 || c.Accuracy() != 1 {
		t.Fatalf("perfect confusion scored %v %v", c.MacroF1(), c.Accuracy())
	}
}

func TestConfusionF1Mixed(t *testing.T) {
	c := NewConfusion([]string{"a", "b"})
	c.Add("a", "a") // tp(a)
	c.Add("a", "b") // fn(a), fp(b)
	c.Add("b", "b")
	c.Add("b", "b")
	// class a: tp=1 fp=0 fn=1 -> p=1 r=0.5 f1=2/3
	if f := c.F1("a"); f < 0.66 || f > 0.67 {
		t.Fatalf("F1(a) = %v", f)
	}
	if c.Accuracy() != 0.75 {
		t.Fatalf("accuracy = %v", c.Accuracy())
	}
}

func TestConfusionUnknownClassIgnored(t *testing.T) {
	c := NewConfusion([]string{"a"})
	c.Add("zzz", "a")
	c.Add("a", "zzz")
	if c.Accuracy() != 0 {
		t.Fatalf("unknown classes were recorded")
	}
	if c.F1("zzz") != 0 {
		t.Fatalf("F1 of unknown class nonzero")
	}
}

func TestConfusionEmptyClassSkippedInMacro(t *testing.T) {
	c := NewConfusion([]string{"a", "never"})
	c.Add("a", "a")
	if c.MacroF1() != 1 {
		t.Fatalf("macro F1 penalized an absent class: %v", c.MacroF1())
	}
}
