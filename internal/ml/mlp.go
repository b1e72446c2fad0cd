package ml

import (
	"math"
	"math/rand"
)

// MLP is a single-hidden-layer neural network trained by backpropagation
// with tanh activations (the NN baseline of Table IV). Table IV scores its
// hardware complexity "high": unlike the perceptron it needs multipliers
// and activation tables.
type MLP struct {
	Hidden       int
	Epochs       int
	LearningRate float64
	Seed         int64

	w1 [][]float64 // [hidden][features]
	b1 []float64
	w2 []float64 // [hidden]
	b2 float64
}

// NewMLP returns the comparison's defaults.
func NewMLP() *MLP {
	return &MLP{Hidden: 16, Epochs: 150, LearningRate: 0.05, Seed: 1}
}

// Fit trains on ±1 labels.
func (m *MLP) Fit(X [][]float64, y []float64) {
	if len(X) == 0 {
		return
	}
	r := rand.New(rand.NewSource(m.Seed))
	f := len(X[0])
	m.w1 = make([][]float64, m.Hidden)
	m.b1 = make([]float64, m.Hidden)
	m.w2 = make([]float64, m.Hidden)
	scale := 1 / math.Sqrt(float64(f))
	for h := range m.w1 {
		m.w1[h] = make([]float64, f)
		for j := range m.w1[h] {
			m.w1[h][j] = (r.Float64()*2 - 1) * scale
		}
		m.w2[h] = (r.Float64()*2 - 1) * 0.5
	}

	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	hid := make([]float64, m.Hidden)
	for e := 0; e < m.Epochs; e++ {
		r.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for _, i := range idx {
			x := X[i]
			// Forward.
			for h := range hid {
				s := m.b1[h]
				row := m.w1[h]
				for j, v := range x {
					if v != 0 {
						s += row[j] * v
					}
				}
				hid[h] = math.Tanh(s)
			}
			out := m.b2
			for h, v := range hid {
				out += m.w2[h] * v
			}
			out = math.Tanh(out)

			// Backward (squared error against ±1 target).
			dOut := (out - y[i]) * (1 - out*out)
			for h := range hid {
				dHid := dOut * m.w2[h] * (1 - hid[h]*hid[h])
				m.w2[h] -= m.LearningRate * dOut * hid[h]
				row := m.w1[h]
				for j, v := range x {
					if v != 0 {
						row[j] -= m.LearningRate * dHid * v
					}
				}
				m.b1[h] -= m.LearningRate * dHid
			}
			m.b2 -= m.LearningRate * dOut
		}
	}
}

// Score implements eval.Model.
func (m *MLP) Score(x []float64) float64 {
	if m.w1 == nil {
		return 0
	}
	out := m.b2
	for h := range m.w1 {
		s := m.b1[h]
		row := m.w1[h]
		for j, v := range x {
			if v != 0 {
				s += row[j] * v
			}
		}
		out += m.w2[h] * math.Tanh(s)
	}
	return math.Tanh(out)
}
