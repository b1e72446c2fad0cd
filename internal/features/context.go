// The shared selection context.
//
// Profiling Select on the quick corpus (330×786 scaled matrix) showed the
// pair sweep's per-pair dense Pearson at >90% of wall time, with the
// remainder spent re-deriving shared state per kernel: mutual information,
// class correlation and the correlation groups each re-scanned the full
// O(n·f) matrix (moments) and re-packed every column. selCtx computes each
// shared pass exactly once per Select call:
//
//   - one word-tiled packing at encoding.BinarizeThreshold, read by the
//     mutual-information popcounts;
//   - one moments pass, one centered column-major transpose and one
//     suffix-norm pass, read by the class correlation and the pair sweep.
//
// The dense pair sweep is the big win: instead of len(active)² strided
// walks over the row-major matrix, it runs dot products over contiguous
// centered columns, blocked into near-uniform column-pair work items, and
// prunes each pair at tile boundaries with a Cauchy–Schwarz suffix-norm
// bound — |Σ_tail a·b| ≤ ‖a_tail‖·‖b_tail‖ — that proves most pairs can
// never reach the 0.98 grouping threshold after the first 32 rows. The
// bound is applied with a slack factor far above float rounding, so a pair
// is pruned only when its full correlation is provably below threshold;
// every surviving pair computes the complete ascending-index sum and takes
// the decision through arithmetic identical to the per-pair Pearson of the
// test oracle, keeping the partition bit-identical to it.
//
// All large intermediates (packed words, centered columns, suffix norms,
// edge slots) come from a reusable scratch bundle, so repeated Select
// calls stop churning ~200KB of per-kernel allocations.

package features

import (
	"math"
	"sync/atomic"

	"perspectron/internal/encoding"
	"perspectron/internal/par"
)

// selScratch is the reusable buffer bundle behind a selection context.
// One bundle is parked in scratchFree between calls; concurrent selections
// simply allocate a fresh bundle on miss.
type selScratch struct {
	words    []uint64          // flat packed-column backing
	packBuf  []uint64          // per-word-tile accumulator (f words)
	cols     []encoding.BitVec // packed column headers
	ones     []int             // packed column popcounts
	mean     []float64         // moments
	std      []float64         // moments
	active   []int             // non-zero-variance column indices
	centBack []float64         // flat centered-column backing (active only)
	centCols [][]float64       // centered column headers
	suf      []float64         // flat suffix-norm backing (active only)
	yc       []float64         // centered labels
	edges    [][]int32         // per-work-item edge slots
}

var scratchFree atomic.Pointer[selScratch]

func getScratch() *selScratch {
	if s := scratchFree.Swap(nil); s != nil {
		return s
	}
	return &selScratch{}
}

func growU64(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	return buf[:n]
}

func growF64(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

func growInt(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// selCtx is the per-call selection context: every intermediate the
// kernels share, each computed at most once.
// Contexts are single-goroutine (internal kernels fan out, but the context
// itself is not shared) and must not be used after release.
type selCtx struct {
	X    [][]float64
	y    []float64
	n, f int

	s  *selScratch
	pm packedMatrix // columns packed at encoding.BinarizeThreshold

	haveMoments bool
	m           colMoments

	haveActive bool
	active     []int

	haveCent bool
	centAct  [][]float64 // centered columns, one per active index
	suf      []float64   // suffix norms, (ntiles+1) per active index
	ntiles   int
}

// newSelCtx packs the matrix once. An empty matrix (no rows, or rows of no
// columns) yields a context with no features.
func newSelCtx(X [][]float64, y []float64) *selCtx {
	sc := &selCtx{X: X, y: y, n: len(X), s: getScratch()}
	if sc.n > 0 {
		sc.f = len(X[0])
	}
	wpc := (sc.n + 63) / 64
	sc.s.words = growU64(sc.s.words, sc.f*wpc)
	clear(sc.s.words) // packMatrixInto skips zero words, so stale bits must go
	sc.s.packBuf = growU64(sc.s.packBuf, sc.f)
	if cap(sc.s.cols) < sc.f {
		sc.s.cols = make([]encoding.BitVec, sc.f)
	}
	sc.s.ones = growInt(sc.s.ones, sc.f)
	sc.pm = packedMatrix{n: sc.n, cols: sc.s.cols[:sc.f], ones: sc.s.ones}
	packMatrixInto(X, encoding.BinarizeThreshold, sc.s.words, sc.s.packBuf, &sc.pm)
	return sc
}

// release parks the scratch bundle for the next selection. The context —
// including its packed and centered columns — is dead afterwards.
func (sc *selCtx) release() {
	s := sc.s
	sc.s = nil
	scratchFree.Store(s)
}

// moments computes the column moments once: column sums, then squared
// deviations, each accumulated in ascending row order.
func (sc *selCtx) moments() colMoments {
	if sc.haveMoments {
		return sc.m
	}
	mean := growF64(sc.s.mean, sc.f)
	std := growF64(sc.s.std, sc.f)
	clear(mean)
	clear(std)
	for _, row := range sc.X {
		for j, v := range row {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(sc.n)
	}
	for _, row := range sc.X {
		for j, v := range row {
			d := v - mean[j]
			std[j] += d * d
		}
	}
	for j := range std {
		std[j] = math.Sqrt(std[j] / float64(sc.n))
	}
	sc.s.mean, sc.s.std = mean, std
	sc.m = colMoments{Mean: mean, Std: std}
	sc.haveMoments = true
	return sc.m
}

// activeSet returns the non-zero-variance columns.
func (sc *selCtx) activeSet() []int {
	if sc.haveActive {
		return sc.active
	}
	m := sc.moments()
	act := sc.s.active[:0]
	for j := 0; j < sc.f; j++ {
		if m.Std[j] > 0 {
			act = append(act, j)
		}
	}
	sc.active = act
	sc.s.active = act
	sc.haveActive = true
	return act
}

// denseTile is the row granularity of the suffix-norm prune checks: a pair
// that cannot reach the grouping threshold is abandoned after its first
// denseTile rows.
const denseTile = 32

// densePruneGuard shrinks the prune limit so that float rounding in the
// partial sum and the suffix norms can never prune a pair whose exact
// correlation reaches the threshold: the bound must undershoot by a
// relative 1e-7 — many orders above the ~n·ε accumulation error, many
// below any correlation gap that occurs in practice — before a pair is
// dropped. Pairs inside that sliver simply run to completion and take the
// exact decision.
const densePruneGuard = 1 - 1e-7

// buildCentered materializes, once, the contiguous centered columns and
// tile-boundary suffix norms the dense pair sweep runs on.
func (sc *selCtx) buildCentered() {
	if sc.haveCent {
		return
	}
	m := sc.moments()
	act := sc.activeSet()
	n, nAct := sc.n, len(act)
	sc.s.centBack = growF64(sc.s.centBack, nAct*n)
	if cap(sc.s.centCols) < nAct {
		sc.s.centCols = make([][]float64, nAct)
	}
	cent := sc.s.centCols[:nAct]
	for k := range cent {
		cent[k] = sc.s.centBack[k*n : (k+1)*n]
	}
	// Row-tiled transpose: each 64-row band of the row-major matrix is
	// centered into all active columns while its cache lines are hot.
	for base := 0; base < n; base += 64 {
		end := base + 64
		if end > n {
			end = n
		}
		rows := sc.X[base:end]
		for k, j := range act {
			col := cent[k]
			mj := m.Mean[j]
			for i, row := range rows {
				col[base+i] = row[j] - mj
			}
		}
	}

	sc.ntiles = (n + denseTile - 1) / denseTile
	stride := sc.ntiles + 1
	sc.s.suf = growF64(sc.s.suf, nAct*stride)
	par.Do(nAct, func(k int) {
		col := cent[k]
		row := sc.s.suf[k*stride : (k+1)*stride]
		row[sc.ntiles] = 0
		acc := 0.0
		for t := sc.ntiles - 1; t >= 0; t-- {
			end := (t + 1) * denseTile
			if end > n {
				end = n
			}
			for i := t * denseTile; i < end; i++ {
				acc += col[i] * col[i]
			}
			row[t] = math.Sqrt(acc)
		}
	})
	sc.centAct = cent
	sc.haveCent = true
}

// denseBlock is the number of columns per dense pair-sweep work item.
const denseBlock = 64

// denseEdges sweeps all active-column pairs for |Pearson| >= threshold over
// the centered columns. Work items are column-block pairs (near-uniform
// cost, cache-resident tiles); each pair accumulates the ascending-index
// product sum — the exact float sequence the legacy per-pair Pearson
// produced — and bails at the first tile boundary where the suffix-norm
// bound proves the threshold unreachable. Surviving pairs divide by the
// identically-associated denominator (n·σa)·σb, so their edge decision is
// bit-identical to the reference.
func (sc *selCtx) denseEdges(threshold float64) [][]int32 {
	sc.buildCentered()
	act := sc.active
	cent := sc.centAct
	std := sc.moments().Std
	n, ntiles := sc.n, sc.ntiles
	stride := ntiles + 1
	suf := sc.s.suf
	nF := float64(n)
	guard := threshold * densePruneGuard

	nb := (len(act) + denseBlock - 1) / denseBlock
	items := nb * (nb + 1) / 2
	if cap(sc.s.edges) < items {
		sc.s.edges = make([][]int32, items)
	}
	slots := sc.s.edges[:items]
	par.Do(items, func(it int) {
		bi, bj := unrankBlockPair(it, nb)
		row := slots[it][:0]
		aLo := bi * denseBlock
		aHi := aLo + denseBlock
		if aHi > len(act) {
			aHi = len(act)
		}
		bLo := bj * denseBlock
		bHi := bLo + denseBlock
		if bHi > len(act) {
			bHi = len(act)
		}
		for ka := aLo; ka < aHi; ka++ {
			ca := cent[ka]
			sa := suf[ka*stride : (ka+1)*stride]
			qa := nF * std[act[ka]]
			lo := bLo
			if lo <= ka {
				lo = ka + 1
			}
			for kb := lo; kb < bHi; kb++ {
				cb := cent[kb]
				denom := qa * std[act[kb]]
				lim := guard * denom
				sb := suf[kb*stride : (kb+1)*stride]
				s := 0.0
				i := 0
				full := true
				for t := 1; ; t++ {
					end := t * denseTile
					if end >= n {
						for ; i < n; i++ {
							s += ca[i] * cb[i]
						}
						break
					}
					for ; i < end; i++ {
						s += ca[i] * cb[i]
					}
					as := s
					if as < 0 {
						as = -as
					}
					if as+sa[t]*sb[t] < lim {
						full = false
						break
					}
				}
				if full {
					r := s / denom
					if math.Abs(r) >= threshold {
						row = append(row, int32(ka), int32(kb))
					}
				}
			}
		}
		slots[it] = row
	})
	sc.s.edges = slots
	return slots
}

// mutualInformation is the per-feature mutual information (in bits)
// between the binarized feature (threshold 0.5) and the class, from
// popcounts over the shared packed columns.
func (sc *selCtx) mutualInformation() []float64 {
	return sc.pm.mutualInformation(sc.y)
}

// classCorrelation returns, for every feature, the Pearson correlation with
// the class labels, as dot products over the centered columns — identical
// floats in identical order to a per-feature row loop.
func (sc *selCtx) classCorrelation() []float64 {
	m := sc.moments()
	n := sc.n
	var ym, ys float64
	for _, v := range sc.y {
		ym += v
	}
	ym /= float64(n)
	for _, v := range sc.y {
		ys += (v - ym) * (v - ym)
	}
	ys = math.Sqrt(ys / float64(n))
	out := make([]float64, sc.f)
	if ys == 0 {
		return out
	}
	sc.buildCentered()
	yc := growF64(sc.s.yc, n)
	for i, v := range sc.y {
		yc[i] = v - ym
	}
	sc.s.yc = yc
	act := sc.active
	cent := sc.centAct
	par.Do(len(act), func(k int) {
		j := act[k]
		col := cent[k]
		var s float64
		for i, c := range col {
			s += c * yc[i]
		}
		out[j] = s / (float64(n) * m.Std[j] * ys)
	})
	return out
}

// correlationGroups clusters features whose pairwise |Pearson| reaches
// threshold, using single-linkage over the features with non-zero variance.
// Groups are returned largest-first, ties broken by smallest member index;
// members are ranked by |class correlation|, matching Table I's
// presentation.
func (sc *selCtx) correlationGroups(threshold float64) []Group {
	act := sc.activeSet()
	uf := newUnionFind(sc.f)
	applyEdges(uf, act, sc.denseEdges(threshold))
	return assembleGroups(act, uf, sc.classCorrelation())
}

// unrankBlockPair maps a flat work-item index to the block pair (i, j with
// i <= j) in row-major upper-triangular order.
func unrankBlockPair(it, nb int) (int, int) {
	// Row i starts at offset i*nb - i*(i-1)/2.
	i := 0
	for {
		rowLen := nb - i
		if it < rowLen {
			return i, i + it
		}
		it -= rowLen
		i++
	}
}

// applyEdges merges every swept edge into the union-find, serially and in
// work-item order. Single-linkage partitions are union-order independent,
// so the result matches the historical ascending per-pair order.
func applyEdges(uf *unionFind, active []int, slots [][]int32) {
	for _, row := range slots {
		for k := 0; k < len(row); k += 2 {
			uf.union(active[row[k]], active[row[k+1]])
		}
	}
}
