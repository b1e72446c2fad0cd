package ml

import "math"

// LogReg is L2-regularized logistic regression trained by batch gradient
// descent (the Logistic Regression baseline of Table IV).
type LogReg struct {
	Epochs       int
	LearningRate float64
	L2           float64

	w    []float64
	bias float64
}

// NewLogReg returns the comparison's defaults.
func NewLogReg() *LogReg {
	return &LogReg{Epochs: 300, LearningRate: 0.5, L2: 1e-4}
}

func sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// Fit trains on ±1 labels (internally mapped to 0/1).
func (l *LogReg) Fit(X [][]float64, y []float64) {
	if len(X) == 0 {
		return
	}
	f := len(X[0])
	l.w = make([]float64, f)
	l.bias = 0
	n := float64(len(X))
	grad := make([]float64, f)
	for e := 0; e < l.Epochs; e++ {
		for j := range grad {
			grad[j] = 0
		}
		var gb float64
		for i, row := range X {
			t := 0.0
			if y[i] > 0 {
				t = 1
			}
			p := sigmoid(l.raw(row))
			d := p - t
			for j, v := range row {
				if v != 0 {
					grad[j] += d * v
				}
			}
			gb += d
		}
		for j := range l.w {
			l.w[j] -= l.LearningRate * (grad[j]/n + l.L2*l.w[j])
		}
		l.bias -= l.LearningRate * gb / n
	}
}

func (l *LogReg) raw(x []float64) float64 {
	s := l.bias
	for j, v := range x {
		if v != 0 {
			s += l.w[j] * v
		}
	}
	return s
}

// Score implements eval.Model: the log-odds (positive = malicious).
func (l *LogReg) Score(x []float64) float64 {
	if l.w == nil {
		return 0
	}
	return l.raw(x)
}
