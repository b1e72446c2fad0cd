package perceptron

import (
	"perspectron/internal/encoding"
	"perspectron/internal/par"
)

// MultiClass implements the paper's attack *classification* mode (§VII-B):
// a one-vs-rest bank of perceptrons, one per class, sharing the k-sparse
// feature space. The predicted class is the argmax of the normalized
// outputs. The paper reports near-perfect training-set F1 for multi-way
// classification but could not cross-validate it (too few attacks per
// category) — the evaluation harness mirrors that protocol.
type MultiClass struct {
	Classes   []string
	Detectors []*Perceptron
}

// NewMultiClass builds a bank for the given class names over n features.
func NewMultiClass(classes []string, n int, cfg Config) *MultiClass {
	m := &MultiClass{Classes: classes}
	for i := range classes {
		c := cfg
		c.Seed = cfg.Seed + int64(i)*31
		m.Detectors = append(m.Detectors, New(n, c))
	}
	return m
}

// Fit trains every class detector one-vs-rest on the bit-packed rows X
// through Perceptron.Fit. The classes fit concurrently through par.Do: each
// detector owns its seeded RNG and its own ±1 targets, and X is only read,
// so the bank does not depend on the worker count.
func (m *MultiClass) Fit(X []encoding.BitVec, labels []string) {
	par.Do(len(m.Classes), func(ci int) {
		y := make([]float64, len(X))
		for i, l := range labels {
			if l == m.Classes[ci] {
				y[i] = 1
			} else {
				y[i] = -1
			}
		}
		m.Detectors[ci].Fit(X, y)
	})
}

// Predict returns the argmax class and its confidence for a bit-packed
// input.
func (m *MultiClass) Predict(x encoding.BitVec) (class string, confidence float64) {
	best, bestScore := 0, m.Detectors[0].Score(x)
	for i := 1; i < len(m.Detectors); i++ {
		if s := m.Detectors[i].Score(x); s > bestScore {
			best, bestScore = i, s
		}
	}
	return m.Classes[best], bestScore
}

// Confusion accumulates a multi-way confusion matrix: rows are true
// classes, columns predicted.
type Confusion struct {
	Classes []string
	Counts  [][]int
	index   map[string]int
}

// NewConfusion returns an empty matrix over classes.
func NewConfusion(classes []string) *Confusion {
	c := &Confusion{Classes: classes, index: map[string]int{}}
	for i, name := range classes {
		c.index[name] = i
	}
	c.Counts = make([][]int, len(classes))
	for i := range c.Counts {
		c.Counts[i] = make([]int, len(classes))
	}
	return c
}

// Add records one (true, predicted) pair; unknown names are ignored.
func (c *Confusion) Add(truth, predicted string) {
	ti, ok1 := c.index[truth]
	pi, ok2 := c.index[predicted]
	if ok1 && ok2 {
		c.Counts[ti][pi]++
	}
}

// F1 returns the F1 score of one class.
func (c *Confusion) F1(class string) float64 {
	i, ok := c.index[class]
	if !ok {
		return 0
	}
	tp := c.Counts[i][i]
	var fp, fn int
	for j := range c.Classes {
		if j != i {
			fp += c.Counts[j][i]
			fn += c.Counts[i][j]
		}
	}
	if tp == 0 {
		return 0
	}
	p := float64(tp) / float64(tp+fp)
	r := float64(tp) / float64(tp+fn)
	return 2 * p * r / (p + r)
}

// MacroF1 returns the unweighted mean F1 over classes that appeared.
func (c *Confusion) MacroF1() float64 {
	var sum float64
	n := 0
	for i, class := range c.Classes {
		total := 0
		for j := range c.Classes {
			total += c.Counts[i][j]
		}
		if total == 0 {
			continue
		}
		sum += c.F1(class)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Accuracy returns the trace/total ratio.
func (c *Confusion) Accuracy() float64 {
	var trace, total int
	for i := range c.Counts {
		for j := range c.Counts[i] {
			total += c.Counts[i][j]
			if i == j {
				trace += c.Counts[i][j]
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(trace) / float64(total)
}
