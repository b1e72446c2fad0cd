package features

import (
	"math"

	"perspectron/internal/encoding"
	"perspectron/internal/stats"
)

// The selection oracle: the historical per-kernel implementation, written
// as plain serial loops. Each kernel makes its own pass over the row-major
// matrix (its own moments, its own per-column packing, a per-pair dense
// Pearson), which is what the selection context computes once and shares.
// The context must reproduce every output bit for bit, and
// BenchmarkSelect/serial-dense measures this path as the baseline the
// context has to beat.

// legacySelect runs the oracle kernels through the same step-2/3 pick as
// Select.
func legacySelect(X [][]float64, y []float64, comps []stats.Component, cfg SelectConfig) Selection {
	mi := legacyMutualInformation(X, y)
	groups := legacyCorrelationGroups(X, y, cfg.GroupThreshold)
	return Selection{Indices: pickFeatures(mi, groups, comps, cfg), Groups: groups, MI: mi}
}

// ComputeMoments returns the column-wise moments of X.
func ComputeMoments(X [][]float64) colMoments {
	n := len(X)
	if n == 0 {
		return colMoments{}
	}
	f := len(X[0])
	mean := make([]float64, f)
	for _, row := range X {
		for j, v := range row {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(n)
	}
	std := make([]float64, f)
	for _, row := range X {
		for j, v := range row {
			d := v - mean[j]
			std[j] += d * d
		}
	}
	for j := range std {
		std[j] = math.Sqrt(std[j] / float64(n))
	}
	return colMoments{Mean: mean, Std: std}
}

// Pearson computes the correlation between columns a and b of X given
// precomputed moments. Zero-variance columns correlate as 0.
func Pearson(X [][]float64, m colMoments, a, b int) float64 {
	if m.Std[a] == 0 || m.Std[b] == 0 {
		return 0
	}
	var s float64
	for _, row := range X {
		s += (row[a] - m.Mean[a]) * (row[b] - m.Mean[b])
	}
	return s / (float64(len(X)) * m.Std[a] * m.Std[b])
}

// legacyClassCorrelation returns, for every feature, the Pearson
// correlation with the class labels: its own moments pass plus a
// per-feature row loop.
func legacyClassCorrelation(X [][]float64, y []float64) []float64 {
	m := ComputeMoments(X)
	n := len(X)
	var ym, ys float64
	for _, v := range y {
		ym += v
	}
	ym /= float64(n)
	for _, v := range y {
		ys += (v - ym) * (v - ym)
	}
	ys = math.Sqrt(ys / float64(n))
	out := make([]float64, len(m.Mean))
	if ys == 0 {
		return out
	}
	for j := range out {
		if m.Std[j] == 0 {
			continue
		}
		var s float64
		for i, row := range X {
			s += (row[j] - m.Mean[j]) * (y[i] - ym)
		}
		out[j] = s / (float64(n) * m.Std[j] * ys)
	}
	return out
}

// legacyMutualInformation returns, per feature, the mutual information (in
// bits) between the binarized feature (threshold 0.5) and the class,
// re-packing every column itself (one PackColumn per feature).
func legacyMutualInformation(X [][]float64, y []float64) []float64 {
	n := len(X)
	if n == 0 {
		return nil
	}
	f := len(X[0])
	out := make([]float64, f)
	ypos := encoding.NewBitVec(n) // bit i set iff y[i] > 0
	for i, v := range y {
		if v > 0 {
			ypos.Set(i)
		}
	}
	nPos := ypos.Ones()
	pY1 := float64(nPos) / float64(n)
	for j := range out {
		col := encoding.PackColumn(X, j, encoding.BinarizeThreshold)
		out[j] = miFromCounts(n, col.Ones(), col.AndCount(ypos), nPos, pY1)
	}
	return out
}

// legacyCorrelationGroups clusters features whose pairwise |Pearson|
// reaches threshold: a moments pass, then every pair of non-zero-variance
// columns in ascending order through Pearson over the row-major matrix.
func legacyCorrelationGroups(X [][]float64, y []float64, threshold float64) []Group {
	m := ComputeMoments(X)
	f := len(m.Mean)
	active := make([]int, 0, f)
	for j := 0; j < f; j++ {
		if m.Std[j] > 0 {
			active = append(active, j)
		}
	}
	uf := newUnionFind(f)
	for ai, a := range active {
		for _, b := range active[ai+1:] {
			if math.Abs(Pearson(X, m, a, b)) >= threshold {
				uf.union(a, b)
			}
		}
	}
	return assembleGroups(active, uf, legacyClassCorrelation(X, y))
}

// The context kernels as standalone calls, for tests that probe one kernel.

func ctxMutualInformation(X [][]float64, y []float64) []float64 {
	sc := newSelCtx(X, y)
	defer sc.release()
	return sc.mutualInformation()
}

func ctxClassCorrelation(X [][]float64, y []float64) []float64 {
	sc := newSelCtx(X, y)
	defer sc.release()
	return sc.classCorrelation()
}

func ctxCorrelationGroups(X [][]float64, y []float64, threshold float64) []Group {
	sc := newSelCtx(X, y)
	defer sc.release()
	return sc.correlationGroups(threshold)
}
