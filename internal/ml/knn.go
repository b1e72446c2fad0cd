package ml

import (
	"container/heap"
	"math"
)

// KNN is a K-nearest-neighbours classifier over Euclidean distance (the
// paper's best baseline accuracy used k = 3). It memorizes the training
// set, which is why Table IV scores its hardware complexity "high".
type KNN struct {
	K int

	X [][]float64
	y []float64
}

// NewKNN returns the paper's configuration (k = 3).
func NewKNN() *KNN { return &KNN{K: 3} }

// Fit memorizes the training set.
func (k *KNN) Fit(X [][]float64, y []float64) {
	k.X = X
	k.y = y
}

// neighborHeap is a max-heap of (distance, label) keeping the K closest.
type neighbor struct {
	dist  float64
	label float64
}

type neighborHeap []neighbor

func (h neighborHeap) Len() int            { return len(h) }
func (h neighborHeap) Less(i, j int) bool  { return h[i].dist > h[j].dist } // max-heap
func (h neighborHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *neighborHeap) Push(x interface{}) { *h = append(*h, x.(neighbor)) }
func (h *neighborHeap) Pop() interface{} {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}

// Score implements eval.Model: the mean label of the K nearest training
// samples.
func (k *KNN) Score(x []float64) float64 {
	if len(k.X) == 0 {
		return 0
	}
	kk := k.K
	if kk <= 0 {
		kk = 3
	}
	h := make(neighborHeap, 0, kk+1)
	for i, row := range k.X {
		var d float64
		for j := range row {
			diff := row[j] - x[j]
			d += diff * diff
			if len(h) == kk && d > h[0].dist {
				break // early exit: already farther than the worst kept
			}
		}
		if len(h) < kk {
			heap.Push(&h, neighbor{d, k.y[i]})
		} else if d < h[0].dist {
			heap.Pop(&h)
			heap.Push(&h, neighbor{d, k.y[i]})
		}
	}
	var s float64
	for _, nb := range h {
		s += nb.label
	}
	return s / math.Max(1, float64(len(h)))
}
