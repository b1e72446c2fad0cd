package features

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"perspectron/internal/encoding"
	"perspectron/internal/stats"
)

// randContinuous builds an n×f matrix of scaled values with correlated
// column families near the grouping threshold — exact duplicates, affine
// rescalings (|r| = 1 exactly), sign-flipped copies, and noisy copies whose
// correlation hovers around 0.98 — so the pruned pair sweep is exercised on
// pairs both far from and right at the decision boundary.
func randContinuous(r *rand.Rand, n, f int) (X [][]float64, y []float64) {
	X = make([][]float64, n)
	y = make([]float64, n)
	for i := range X {
		y[i] = float64(2*(i%2) - 1)
		row := make([]float64, f)
		for j := range row {
			row[j] = r.NormFloat64()
			if j%5 == 0 && y[i] > 0 {
				row[j] += 0.3
			}
		}
		for j := range row {
			switch j % 7 {
			case 1: // exact duplicate of the previous column
				row[j] = row[j-1]
			case 2: // affine rescaling: correlation exactly ±1
				row[j] = 3*row[j-2] + 1
			case 3: // sign flip
				row[j] = -row[j-3]
			case 4: // noisy copy, correlation near the 0.98 threshold
				row[j] = row[j-4] + 0.2*r.NormFloat64()
			case 5: // constant column (zero variance)
				row[j] = 2.5
			}
		}
		X[i] = row
	}
	return X, y
}

// TestPackMatrixMatchesPackColumn: the word-tiled one-pass packer must be
// bit-for-bit equal to the historical per-column PackColumn, on binary and
// continuous input and at both packing thresholds in use.
func TestPackMatrixMatchesPackColumn(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 12; trial++ {
		n, f := 1+r.Intn(200), 1+r.Intn(40)
		var X [][]float64
		if trial%2 == 0 {
			X, _ = randBinary(r, n, f)
		} else {
			X, _ = randContinuous(r, n, f)
		}
		for _, thr := range []float64{encoding.BinarizeThreshold, 1} {
			wpc := (n + 63) / 64
			pm := packedMatrix{n: n, cols: make([]encoding.BitVec, f), ones: make([]int, f)}
			packMatrixInto(X, thr, make([]uint64, f*wpc), make([]uint64, f), &pm)
			for j := 0; j < f; j++ {
				ref := encoding.PackColumn(X, j, thr)
				if !reflect.DeepEqual([]uint64(pm.cols[j]), []uint64(ref)) {
					t.Fatalf("trial %d thr %v col %d: packed words differ", trial, thr, j)
				}
				if pm.ones[j] != ref.Ones() {
					t.Fatalf("trial %d thr %v col %d: ones %d != %d", trial, thr, j, pm.ones[j], ref.Ones())
				}
			}
		}
	}
}

// TestPackedMatrixKernelsBitIdentical: MI, class correlation and
// correlation groups read from one shared selection context — one packing,
// one moments pass, one centered transpose, reused across the kernels —
// must be bit-identical to the per-kernel oracle on random 0/1 matrices.
func TestPackedMatrixKernelsBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for trial := 0; trial < 10; trial++ {
		n, f := 30+r.Intn(150), 5+r.Intn(30)
		X, y := randBinary(r, n, f)
		sc := newSelCtx(X, y)
		groups := sc.correlationGroups(0.98)
		cc := sc.classCorrelation()
		mi := sc.mutualInformation()
		sc.release()

		if want := legacyMutualInformation(X, y); !reflect.DeepEqual(mi, want) {
			t.Fatalf("trial %d: shared-context MI differs from the oracle", trial)
		}
		if want := legacyClassCorrelation(X, y); !reflect.DeepEqual(cc, want) {
			t.Fatalf("trial %d: shared-context class correlation differs from the oracle", trial)
		}
		if want := legacyCorrelationGroups(X, y, 0.98); !reflect.DeepEqual(groups, want) {
			t.Fatalf("trial %d: shared-context groups %v != oracle %v", trial, groups, want)
		}
	}
}

// TestSelectionContextMatchesLegacy: the selection context must reproduce
// the serial per-kernel oracle exactly — every kernel and the complete
// Select output — on binary and continuous matrices. On continuous input
// this pins the suffix-norm-pruned dense pair sweep to the per-pair
// reference decision; on binary input it pins the dense class correlation
// and pair sweep to the same oracle.
func TestSelectionContextMatchesLegacy(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	comps := func(f int) []stats.Component {
		out := make([]stats.Component, f)
		for j := range out {
			out[j] = stats.Component(j % int(stats.NumComponents))
		}
		return out
	}
	cfg := SelectConfig{GroupThreshold: 0.98, MaxFeatures: 12, MinMI: 1e-4}
	for trial := 0; trial < 10; trial++ {
		n, f := 40+r.Intn(160), 6+r.Intn(30)
		var X [][]float64
		var y []float64
		if trial%2 == 0 {
			X, y = randBinary(r, n, f)
		} else {
			X, y = randContinuous(r, n, f)
		}

		if mi, want := ctxMutualInformation(X, y), legacyMutualInformation(X, y); !reflect.DeepEqual(mi, want) {
			t.Fatalf("trial %d: context MI differs from legacy", trial)
		}
		if cc, want := ctxClassCorrelation(X, y), legacyClassCorrelation(X, y); !reflect.DeepEqual(cc, want) {
			t.Fatalf("trial %d: context class correlation differs from legacy", trial)
		}
		if groups, want := ctxCorrelationGroups(X, y, 0.98), legacyCorrelationGroups(X, y, 0.98); !reflect.DeepEqual(groups, want) {
			t.Fatalf("trial %d: context groups %v != legacy %v", trial, groups, want)
		}
		if sel, want := Select(context.Background(), X, y, comps(f), cfg), legacySelect(X, y, comps(f), cfg); !reflect.DeepEqual(sel, want) {
			t.Fatalf("trial %d: context Select %v != legacy %v", trial, sel.Indices, want.Indices)
		}
	}
}

// TestSelectionContextZeroVariance: a matrix whose every column is constant
// has no active features — no groups, zero class correlation — and Select
// must come back empty without faulting, on the context and the oracle.
func TestSelectionContextZeroVariance(t *testing.T) {
	n, f := 50, 12
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		y[i] = float64(2*(i%2) - 1)
		row := make([]float64, f)
		for j := range row {
			row[j] = float64(j % 2) // constant per column: half zeros, half ones
		}
		X[i] = row
	}
	comps := make([]stats.Component, f)
	cfg := DefaultSelectConfig()

	for _, legacy := range []bool{false, true} {
		groups, cc, sel := ctxCorrelationGroups, ctxClassCorrelation,
			func(X [][]float64, y []float64, comps []stats.Component, cfg SelectConfig) Selection {
				return Select(context.Background(), X, y, comps, cfg)
			}
		if legacy {
			groups, cc, sel = legacyCorrelationGroups, legacyClassCorrelation, legacySelect
		}
		if g := groups(X, y, 0.98); len(g) != 0 {
			t.Fatalf("legacy=%v: zero-variance matrix produced groups %v", legacy, g)
		}
		for j, v := range cc(X, y) {
			if v != 0 {
				t.Fatalf("legacy=%v: constant column %d has class correlation %v", legacy, j, v)
			}
		}
		if s := sel(X, y, comps, cfg); len(s.Indices) != 0 {
			t.Fatalf("legacy=%v: zero-variance matrix selected %v", legacy, s.Indices)
		}
	}
}

// TestGroupOrderSmallestMemberTieBreak: equal-size groups must order by
// their smallest member index, not by whichever member the |class
// correlation| re-ranking happens to put first. Columns 0 and 9 form one
// group (9 carries the class signal, so re-ranking lists it first) and
// columns 4 and 5 form another; the {0,9} group must still sort first.
func TestGroupOrderSmallestMemberTieBreak(t *testing.T) {
	const n, f = 64, 10
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		y[i] = float64(2*(i%2) - 1)
		row := make([]float64, f)
		base := float64((i / 2) % 2) // class-independent 0/1 pattern
		row[0] = base
		row[9] = base
		if y[i] > 0 && i%8 == 0 {
			row[9] = 1 - row[9] // perturb 9 so it gains class correlation
			row[0] = row[9]     // keep the pair perfectly correlated
		}
		other := float64((i / 4) % 2)
		row[4] = other
		row[5] = other
		X[i] = row
	}
	for _, legacy := range []bool{false, true} {
		groups := ctxCorrelationGroups(X, y, 0.98)
		if legacy {
			groups = legacyCorrelationGroups(X, y, 0.98)
		}
		if len(groups) != 2 {
			t.Fatalf("legacy=%v: got %d groups %v, want 2", legacy, len(groups), groups)
		}
		min0 := groups[0].Members[0]
		for _, m := range groups[0].Members {
			if m < min0 {
				min0 = m
			}
		}
		if min0 != 0 {
			t.Fatalf("legacy=%v: first group %v does not contain the smallest member index 0: %v",
				legacy, groups[0].Members, groups)
		}
	}
}

// TestSelectConcurrentWithConfigChanges: selections running concurrently
// share the parked scratch bundle (one goroutine takes it, the others
// allocate fresh ones, and every release parks its own). They must stay
// race-free, and every result must match the serial one.
func TestSelectConcurrentWithConfigChanges(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	X, y := randContinuous(r, 80, 16)
	comps := make([]stats.Component, 16)
	for j := range comps {
		comps[j] = stats.Component(j % int(stats.NumComponents))
	}
	cfg := SelectConfig{GroupThreshold: 0.98, MaxFeatures: 8, MinMI: 1e-4}
	want := Select(context.Background(), X, y, comps, cfg)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 8; iter++ {
				if got := Select(context.Background(), X, y, comps, cfg); !reflect.DeepEqual(got, want) {
					t.Errorf("concurrent Select diverged: %v vs %v", got.Indices, want.Indices)
					return
				}
			}
		}()
	}
	wg.Wait()
}
