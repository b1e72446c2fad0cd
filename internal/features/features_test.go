package features

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"perspectron/internal/stats"
)

// synth builds a dataset with known structure:
//
//	f0: equals the class signal (perfectly informative)
//	f1: copy of f0 in a different component (cross-component replica)
//	f2: copy of f0 in the same component as f0 (within-component duplicate)
//	f3: pure noise
//	f4: constant (zero variance)
//	f5: anti-correlated with the class
func synth(n int, r *rand.Rand) (X [][]float64, y []float64, comps []stats.Component) {
	comps = []stats.Component{
		stats.CompFetch, stats.CompCommit, stats.CompFetch,
		stats.CompIQ, stats.CompIEW, stats.CompDCache,
	}
	for i := 0; i < n; i++ {
		cls := -1.0
		if i%2 == 0 {
			cls = 1.0
		}
		sig := 0.0
		if cls > 0 {
			sig = 1.0
		}
		row := []float64{sig, sig, sig, r.Float64(), 0.5, 1 - sig}
		X = append(X, row)
		y = append(y, cls)
	}
	return X, y, comps
}

func TestClassCorrelation(t *testing.T) {
	X, y, _ := synth(200, rand.New(rand.NewSource(1)))
	cc := ctxClassCorrelation(X, y)
	if cc[0] < 0.99 {
		t.Fatalf("signal feature correlation = %v", cc[0])
	}
	if cc[5] > -0.99 {
		t.Fatalf("anti-correlated feature = %v", cc[5])
	}
	if math.Abs(cc[3]) > 0.3 {
		t.Fatalf("noise feature correlation = %v", cc[3])
	}
	if cc[4] != 0 {
		t.Fatalf("constant feature correlation = %v", cc[4])
	}
}

func TestPearsonSelfAndCopy(t *testing.T) {
	X, _, _ := synth(100, rand.New(rand.NewSource(2)))
	m := ComputeMoments(X)
	if v := Pearson(X, m, 0, 0); math.Abs(v-1) > 1e-9 {
		t.Fatalf("self correlation = %v", v)
	}
	if v := Pearson(X, m, 0, 1); math.Abs(v-1) > 1e-9 {
		t.Fatalf("copy correlation = %v", v)
	}
	if v := Pearson(X, m, 0, 5); math.Abs(v+1) > 1e-9 {
		t.Fatalf("anti-copy correlation = %v", v)
	}
	if v := Pearson(X, m, 0, 4); v != 0 {
		t.Fatalf("constant-column correlation = %v", v)
	}
}

func TestMutualInformation(t *testing.T) {
	X, y, _ := synth(400, rand.New(rand.NewSource(3)))
	mi := ctxMutualInformation(X, y)
	if mi[0] < 0.99 { // perfect predictor of a balanced class = 1 bit
		t.Fatalf("MI of signal = %v", mi[0])
	}
	if mi[5] < 0.99 { // anti-correlation carries the same information
		t.Fatalf("MI of anti-signal = %v", mi[5])
	}
	if mi[3] > 0.1 {
		t.Fatalf("MI of noise = %v", mi[3])
	}
	if mi[4] > 1e-9 {
		t.Fatalf("MI of constant = %v", mi[4])
	}
}

func TestCorrelationGroups(t *testing.T) {
	X, y, _ := synth(300, rand.New(rand.NewSource(4)))
	groups := ctxCorrelationGroups(X, y, 0.98)
	// f0, f1, f2, f5 are all mutually |corr|=1: one group of 4.
	if len(groups) != 1 {
		t.Fatalf("groups = %d, want 1", len(groups))
	}
	if len(groups[0].Members) != 4 {
		t.Fatalf("group size = %d, want 4", len(groups[0].Members))
	}
}

func TestSelectKeepsReplicasDropsDuplicates(t *testing.T) {
	X, y, comps := synth(300, rand.New(rand.NewSource(5)))
	sel := Select(context.Background(), X, y, comps, SelectConfig{GroupThreshold: 0.98, MaxFeatures: 10, MinMI: 1e-4})

	has := func(j int) bool {
		for _, v := range sel.Indices {
			if v == j {
				return true
			}
		}
		return false
	}
	// Cross-component replicas survive: f0 (fetch) and f1 (commit) and f5
	// (dcache) should all be selected.
	if !has(0) || !has(1) || !has(5) {
		t.Fatalf("replicated features dropped: %v", sel.Indices)
	}
	// f2 duplicates f0 within the same component: dropped.
	if has(2) {
		t.Fatalf("within-component duplicate survived: %v", sel.Indices)
	}
	// The constant feature must never be selected.
	if has(4) {
		t.Fatalf("constant feature selected")
	}
}

func TestSelectRespectsBudget(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	n, f := 200, 40
	X := make([][]float64, n)
	y := make([]float64, n)
	comps := make([]stats.Component, f)
	for j := range comps {
		comps[j] = stats.Component(j % int(stats.NumComponents))
	}
	for i := range X {
		y[i] = float64(2*(i%2) - 1)
		row := make([]float64, f)
		for j := range row {
			row[j] = r.Float64()
			if j%4 == 0 && y[i] > 0 {
				row[j] += 0.5 // weakly informative quarter
			}
		}
		X[i] = row
	}
	sel := Select(context.Background(), X, y, comps, SelectConfig{GroupThreshold: 0.98, MaxFeatures: 7, MinMI: 0})
	if len(sel.Indices) != 7 {
		t.Fatalf("budget violated: %d", len(sel.Indices))
	}
	seen := map[int]bool{}
	for _, j := range sel.Indices {
		if seen[j] {
			t.Fatalf("duplicate selection %d", j)
		}
		seen[j] = true
	}
}

func TestMAPFeatures(t *testing.T) {
	names := []string{
		"commit.op_class_0::IntAlu",
		"commit.committedInsts",
		"fetch.SquashCycles",
		"dcache.overall_misses",
		"lsq.thread0.squashedLoads",
	}
	idx := MAPFeatures(names)
	if len(idx) != 3 {
		t.Fatalf("MAP features = %v", idx)
	}
	for _, j := range idx {
		if names[j] == "fetch.SquashCycles" || names[j] == "lsq.thread0.squashedLoads" {
			t.Fatalf("MAP features include speculative-state counters")
		}
	}
}

func TestCrossComponentGroups(t *testing.T) {
	comps := []stats.Component{stats.CompFetch, stats.CompFetch, stats.CompCommit}
	groups := []Group{
		{Members: []int{0, 1}},    // same component only
		{Members: []int{0, 1, 2}}, // spans two components
	}
	out := CrossComponentGroups(groups, comps)
	if len(out) != 1 || len(out[0].Members) != 3 {
		t.Fatalf("cross-component filter wrong: %v", out)
	}
}

func TestEmptyInputs(t *testing.T) {
	if m := ComputeMoments(nil); m.Mean != nil {
		t.Fatalf("moments of empty set")
	}
	if mi := ctxMutualInformation(nil, nil); mi != nil {
		t.Fatalf("MI of empty set")
	}
	cfg := DefaultSelectConfig()
	if sel := Select(context.Background(), nil, nil, nil, cfg); len(sel.Indices) != 0 || len(sel.Groups) != 0 || len(sel.MI) != 0 {
		t.Fatalf("Select on a nil matrix = %+v, want empty", sel)
	}
	X := [][]float64{{}, {}, {}}
	y := []float64{1, -1, 1}
	if sel := Select(context.Background(), X, y, nil, cfg); len(sel.Indices) != 0 || len(sel.Groups) != 0 || len(sel.MI) != 0 {
		t.Fatalf("Select on a zero-column matrix = %+v, want empty", sel)
	}
}
