// The column-major bit-packed matrix the mutual-information kernel reads.
//
// packMatrixInto converts the row-major matrix in one word-tiled pass: 64
// rows at a time, scattering bits into an f-word accumulator that stays
// cache-resident, then flushing one word per column. The MI popcounts then
// read contiguous packed columns with cached one-counts.

package features

import (
	"perspectron/internal/encoding"
	"perspectron/internal/par"
)

// packedMatrix is a column-major bit-packed view of a sample matrix: column
// j of the input becomes the BitVec cols[j] (bit i set iff X[i][j] >= the
// packing threshold), with its popcount cached in ones[j]. All columns
// share one flat word allocation.
type packedMatrix struct {
	n    int               // samples (rows) packed into each column
	cols []encoding.BitVec // one packed column per feature
	ones []int             // cols[j].Ones()
}

// packMatrixInto fills pm from X using the caller's word backing and
// per-column tile accumulator. words must hold f*ceil(n/64) zeroed words;
// buf must hold f words (content ignored). The result is bit-for-bit equal
// to calling encoding.PackColumn per column.
func packMatrixInto(X [][]float64, thr float64, words, buf []uint64, pm *packedMatrix) {
	n := pm.n
	wpc := (n + 63) / 64
	for j := range pm.cols {
		pm.cols[j] = encoding.BitVec(words[j*wpc : (j+1)*wpc])
	}
	for w := 0; w < wpc; w++ {
		clear(buf)
		base := w * 64
		end := base + 64
		if end > n {
			end = n
		}
		for i := base; i < end; i++ {
			bit := uint64(1) << uint(i-base)
			for j, v := range X[i] {
				if v >= thr {
					buf[j] |= bit
				}
			}
		}
		for j, bw := range buf {
			if bw != 0 {
				words[j*wpc+w] = bw
			}
		}
	}
	for j := range pm.cols {
		pm.ones[j] = pm.cols[j].Ones()
	}
}

// mutualInformation returns, per packed column, the mutual information (in
// bits) between the column's bits and the class. For a matrix packed at
// encoding.BinarizeThreshold the popcounts are exactly the contingency
// integers a dense row loop over the binarized matrix counts, and
// miFromCounts is the same arithmetic, so the result is bit-identical to
// that loop.
func (pm *packedMatrix) mutualInformation(y []float64) []float64 {
	n := pm.n
	if n == 0 {
		return nil
	}
	out := make([]float64, len(pm.cols))
	ypos := encoding.NewBitVec(n) // bit i set iff y[i] > 0
	for i, v := range y {
		if v > 0 {
			ypos.Set(i)
		}
	}
	nPos := ypos.Ones()
	pY1 := float64(nPos) / float64(n)
	par.Do(len(out), func(j int) {
		out[j] = miFromCounts(n, pm.ones[j], pm.cols[j].AndCount(ypos), nPos, pY1)
	})
	return out
}
