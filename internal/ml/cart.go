package ml

import "sort"

// CART is a binary decision tree grown with the Gini impurity criterion
// (the DT-CART baseline of Table IV).
type CART struct {
	MaxDepth    int
	MinLeafSize int

	root *cartNode
}

// NewCART returns a tree with the comparison's defaults.
func NewCART() *CART { return &CART{MaxDepth: 12, MinLeafSize: 4} }

type cartNode struct {
	feature   int
	threshold float64
	left      *cartNode
	right     *cartNode
	leaf      bool
	value     float64 // mean label in the leaf, in [-1, 1]
}

// Fit grows the tree.
func (c *CART) Fit(X [][]float64, y []float64) {
	if len(X) == 0 {
		return
	}
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	c.root = c.grow(X, y, idx, 0)
}

func gini(pos, n float64) float64 {
	if n == 0 {
		return 0
	}
	p := pos / n
	return 2 * p * (1 - p)
}

func (c *CART) grow(X [][]float64, y []float64, idx []int, depth int) *cartNode {
	var pos float64
	for _, i := range idx {
		if y[i] > 0 {
			pos++
		}
	}
	n := float64(len(idx))
	mean := 2*pos/n - 1
	if depth >= c.MaxDepth || len(idx) <= c.MinLeafSize || pos == 0 || pos == n {
		return &cartNode{leaf: true, value: mean}
	}

	bestFeat, bestThr, bestScore := -1, 0.0, gini(pos, n)
	f := len(X[idx[0]])
	vals := make([]float64, 0, len(idx))
	for j := 0; j < f; j++ {
		vals = vals[:0]
		for _, i := range idx {
			vals = append(vals, X[i][j])
		}
		sort.Float64s(vals)
		// Candidate thresholds at quantiles keep this O(f·k·n).
		for _, q := range []float64{0.25, 0.5, 0.75} {
			thr := vals[int(q*float64(len(vals)-1))]
			var lPos, lN, rPos, rN float64
			for _, i := range idx {
				if X[i][j] <= thr {
					lN++
					if y[i] > 0 {
						lPos++
					}
				} else {
					rN++
					if y[i] > 0 {
						rPos++
					}
				}
			}
			if lN == 0 || rN == 0 {
				continue
			}
			score := (lN*gini(lPos, lN) + rN*gini(rPos, rN)) / n
			if score < bestScore-1e-12 {
				bestScore, bestFeat, bestThr = score, j, thr
			}
		}
	}
	if bestFeat < 0 {
		return &cartNode{leaf: true, value: mean}
	}

	var left, right []int
	for _, i := range idx {
		if X[i][bestFeat] <= bestThr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	return &cartNode{
		feature:   bestFeat,
		threshold: bestThr,
		left:      c.grow(X, y, left, depth+1),
		right:     c.grow(X, y, right, depth+1),
	}
}

// Score implements eval.Model: the mean label of the reached leaf.
func (c *CART) Score(x []float64) float64 {
	n := c.root
	if n == nil {
		return 0
	}
	for !n.leaf {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.value
}
