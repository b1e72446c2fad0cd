package features

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"perspectron/internal/stats"
)

// TestQuickGroupThresholdMonotone: raising the grouping threshold can only
// shrink or split groups (total grouped features never grows).
func TestQuickGroupThresholdMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, fdim := 60, 12
		X := make([][]float64, n)
		y := make([]float64, n)
		for i := range X {
			y[i] = float64(2*(i%2) - 1)
			row := make([]float64, fdim)
			base := r.Float64()
			for j := range row {
				if j < 4 {
					row[j] = base // perfectly correlated quartet
				} else {
					row[j] = r.Float64()
				}
			}
			X[i] = row
		}
		grouped := func(thr float64) int {
			total := 0
			for _, g := range ctxCorrelationGroups(X, y, thr) {
				total += len(g.Members)
			}
			return total
		}
		return grouped(0.99) <= grouped(0.5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(21))}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSelectionSubsetOfInformative: selected features always carry MI
// at least MinMI and never include zero-variance columns.
func TestQuickSelectionWellFormed(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, fdim := 80, 20
		X := make([][]float64, n)
		y := make([]float64, n)
		comps := make([]stats.Component, fdim)
		for j := range comps {
			comps[j] = stats.Component(j % int(stats.NumComponents))
		}
		for i := range X {
			y[i] = float64(2*(i%2) - 1)
			row := make([]float64, fdim)
			for j := range row {
				switch {
				case j == 0:
					row[j] = 0.5 // constant
				case j%3 == 0 && y[i] > 0:
					row[j] = 0.8 + 0.2*r.Float64()
				default:
					row[j] = r.Float64() * 0.6
				}
			}
			X[i] = row
		}
		cfg := SelectConfig{GroupThreshold: 0.98, MaxFeatures: 8, MinMI: 1e-4}
		sel := Select(context.Background(), X, y, comps, cfg)
		if len(sel.Indices) > cfg.MaxFeatures {
			return false
		}
		for _, j := range sel.Indices {
			if j == 0 { // the constant column
				return false
			}
			if sel.MI[j] < cfg.MinMI {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(22))}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectionRoundRobinBalance(t *testing.T) {
	// With equally informative features in every component, the greedy
	// round-robin must not let one component dominate.
	r := rand.New(rand.NewSource(5))
	n := 200
	nComp := int(stats.NumComponents)
	fdim := nComp * 4
	X := make([][]float64, n)
	y := make([]float64, n)
	comps := make([]stats.Component, fdim)
	for j := range comps {
		comps[j] = stats.Component(j % nComp)
	}
	for i := range X {
		y[i] = float64(2*(i%2) - 1)
		row := make([]float64, fdim)
		for j := range row {
			// Every feature weakly informative plus independent noise.
			row[j] = r.Float64() * 0.5
			if y[i] > 0 && r.Float64() < 0.7 {
				row[j] += 0.5
			}
		}
		X[i] = row
	}
	sel := Select(context.Background(), X, y, comps, SelectConfig{GroupThreshold: 0.999, MaxFeatures: nComp * 2, MinMI: 0})
	perComp := map[stats.Component]int{}
	for _, j := range sel.Indices {
		perComp[comps[j]]++
	}
	for c, cnt := range perComp {
		if cnt > 3 {
			t.Fatalf("component %v dominates with %d selections", c, cnt)
		}
	}
	if len(perComp) < nComp {
		t.Fatalf("only %d of %d components represented", len(perComp), nComp)
	}
}
