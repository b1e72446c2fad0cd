package eval

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// TestROCNaNDeterministic: NaN scores used to poison the sort comparator
// (non-transitive `>`), so the curve depended on input order. With NaNs
// filtered, every permutation must yield the same curve, and that curve
// must equal the one built from the finite entries alone.
func TestROCNaNDeterministic(t *testing.T) {
	scores := []float64{0.9, math.NaN(), 0.2, 0.7, math.NaN(), 0.4, 0.1}
	y := []float64{1, 1, -1, 1, -1, -1, 1}

	var cleanS, cleanY []float64
	for i, s := range scores {
		if !math.IsNaN(s) {
			cleanS = append(cleanS, s)
			cleanY = append(cleanY, y[i])
		}
	}
	want := ROC(cleanS, cleanY)

	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		idx := r.Perm(len(scores))
		ps := make([]float64, len(scores))
		py := make([]float64, len(scores))
		for k, i := range idx {
			ps[k] = scores[i]
			py[k] = y[i]
		}
		got := ROC(ps, py)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: permuted ROC differs from NaN-free curve:\ngot  %v\nwant %v", trial, got, want)
		}
	}
	if auc := AUC(want); math.IsNaN(auc) {
		t.Fatalf("AUC is NaN after filtering")
	}
}

// TestROCDegenerateFolds pins the documented behavior for folds missing an
// entire class: no negatives → FPR stays 0 (AUC 0), no positives → TPR
// stays 0. Both curves must still be finite and deterministic.
func TestROCDegenerateFolds(t *testing.T) {
	// All positive.
	pts := ROC([]float64{0.9, 0.5, 0.1}, []float64{1, 1, 1})
	for _, p := range pts {
		if p.FPR != 0 {
			t.Fatalf("all-positive fold: FPR = %v, want 0", p.FPR)
		}
		if math.IsNaN(p.TPR) {
			t.Fatalf("all-positive fold: NaN TPR")
		}
	}
	if last := pts[len(pts)-1]; last.TPR != 1 {
		t.Fatalf("all-positive fold: final TPR = %v, want 1", last.TPR)
	}
	if auc := AUC(pts); auc != 0 {
		t.Fatalf("all-positive fold: AUC = %v, want 0", auc)
	}

	// All negative.
	pts = ROC([]float64{0.9, 0.5, 0.1}, []float64{-1, -1, -1})
	for _, p := range pts {
		if p.TPR != 0 {
			t.Fatalf("all-negative fold: TPR = %v, want 0", p.TPR)
		}
		if math.IsNaN(p.FPR) {
			t.Fatalf("all-negative fold: NaN FPR")
		}
	}
	if auc := AUC(pts); auc != 0 {
		t.Fatalf("all-negative fold: AUC = %v, want 0", auc)
	}

	// All NaN collapses to the (0,0) anchor only.
	pts = ROC([]float64{math.NaN(), math.NaN()}, []float64{1, -1})
	if len(pts) != 1 || pts[0].FPR != 0 || pts[0].TPR != 0 {
		t.Fatalf("all-NaN fold: pts = %v, want single origin point", pts)
	}
}
