package perspectron

// Equivalence pins: golden values captured from the pre-refactor scoring and
// encoding implementations (the three divergent normalize/binarize copies),
// asserted against the unified internal/encoding path. Any drift in the
// shared Scale/Binarize/Margin math — or in deterministic trace collection —
// fails these tests bit-for-bit.
//
// The classifier goldens use finite and NaN inputs only: +Inf handling is
// the one deliberate behaviour change of the refactor (the old classifier
// fired a bit on +Inf; it now masks it like the detector — see
// TestClassifierFaultMasking).

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"perspectron/internal/perceptron"
	"perspectron/internal/trace"
	"perspectron/internal/workload"
	"perspectron/internal/workload/attacks"
	"perspectron/internal/workload/benign"
)

// hashMatrix fingerprints a float64 matrix by its exact bit patterns
// (little-endian IEEE-754 through fnv64a), so equality means bit-identity.
func hashMatrix(X [][]float64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, row := range X {
		for _, v := range row {
			bits := math.Float64bits(v)
			for i := 0; i < 8; i++ {
				b[i] = byte(bits >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func TestDetectorScoreEquivalence(t *testing.T) {
	det := &Detector{
		FeatureNames: []string{"a", "b", "c", "d"},
		Weights:      []float64{0.8, -0.5, 0.3, 1.1},
		Bias:         -0.2,
		Threshold:    0.25,
		Interval:     10_000,
		GlobalMax:    []float64{10, 5, 0, 8},
		PointMax: [][]float64{
			{10, 4, 0, 0},
			{2, 5, 1, 8},
		},
	}
	scorer := newRawScorer(det, []int{0, 2, 3, 5}, nil, nil)
	raws := [][]float64{
		{9, 1, 1, 0, 7, 4},
		{1, 0, 4.9, 9, 0, 4.0},
		{0, 0, math.NaN(), 2, 1, math.Inf(1)},
		{5, 2, 2.5, 0.5, 3, 7.9},
	}
	// golden[point+1][raw] captured from the pre-refactor dense scorer:
	// points -1 and >=len(PointMax) fall back to the global maxima, so rows
	// 0 (point -1) and 3 (point 2) equal row 1 (point 0)'s globals-only case.
	goldenScore := [4][4]float64{
		{0.8095238095238095, 0.2222222222222223, -1, 0.46153846153846156},
		{0.8095238095238095, 0.2222222222222223, -1, 0.46153846153846156},
		{0.8095238095238095, 0.5172413793103449, 0.19999999999999996, 0.5172413793103449},
		{0.8095238095238095, 0.2222222222222223, -1, 0.46153846153846156},
	}
	goldenAvail := [4][4]int{
		{4, 4, 2, 4},
		{4, 4, 2, 4},
		{4, 4, 2, 4},
		{4, 4, 2, 4},
	}
	for pi := -1; pi < 3; pi++ {
		for ri, raw := range raws {
			score, _, coverage := scorer.Detect(RawSample{Sample: pi, Raw: raw})
			avail := coverage * float64(len(det.FeatureNames))
			if score != goldenScore[pi+1][ri] || avail != float64(goldenAvail[pi+1][ri]) {
				t.Errorf("Detect(raw %d, point %d) = (%v, %v), golden (%v, %d)",
					ri, pi, score, avail, goldenScore[pi+1][ri], goldenAvail[pi+1][ri])
			}
		}
	}
}

func TestClassifierScoreEquivalence(t *testing.T) {
	c := &Classifier{
		Classes:      []string{"benign", "x", "y"},
		FeatureNames: []string{"a", "b", "c"},
		Weights:      [][]float64{{0.5, -0.2, 0.1}, {-0.4, 0.9, 0.2}, {0.3, 0.3, -0.6}},
		Biases:       []float64{0.1, -0.3, 0.05},
		GlobalMax:    []float64{10, 0, 4},
	}
	scorer := newRawScorer(nil, nil, c, []int{0, 1, 2})
	craws := [][]float64{
		{9, 1, 2},
		{4, 0, 3.9},
		{0, 5, 1},
		{math.NaN(), 1, 3},
	}
	golden := [4][3]float64{
		{1, -0.5555555555555556, -0.2631578947368421},
		{1, -0.19999999999999996, -0.846153846153846},
		{1, -1, 1},
		{1, -0.19999999999999996, -0.846153846153846},
	}
	for ri, raw := range craws {
		scorer.Classify(RawSample{Sample: -1, Raw: raw})
		for ci, s := range scorer.scores {
			if s != golden[ri][ci] {
				t.Errorf("Classify(raw %d) score[%s] = %v, golden %v",
					ri, c.Classes[ci], s, golden[ri][ci])
			}
		}
	}
}

// TestEncoderEquivalence pins the full collect→encode pipeline: a tiny
// two-program corpus must scale and binarize to the exact matrices the
// pre-refactor encoder produced.
func TestEncoderEquivalence(t *testing.T) {
	progs := []workload.Program{benign.Bzip2(), attacks.FlushReload()}
	ds := trace.Collect(context.Background(), progs, trace.CollectConfig{
		MaxInsts: 40_000, Interval: 10_000, Seed: 3, Runs: 1,
	})[0]
	m := trace.Maxima(ds)
	X, y := trace.Scaled(m, ds, nil)
	// The bit-packed encoding must carry the bits of the golden dense
	// binary matrix.
	Xp, yp := trace.Bits(m, ds, nil)
	Xb := make([][]float64, len(Xp))
	for i, row := range Xp {
		Xb[i] = row.Unpack(ds.NumFeatures())
	}

	if len(ds.Samples) != 8 || ds.NumFeatures() != 786 {
		t.Fatalf("corpus shape = (%d samples, %d features), golden (8, 786)",
			len(ds.Samples), ds.NumFeatures())
	}
	ysum := 0.0
	for _, v := range y {
		ysum += v
	}
	if ysum != 0 {
		t.Errorf("label sum = %v, golden 0 (balanced tiny corpus)", ysum)
	}
	if h := hashMatrix(X); h != "da46b9f110a16c88" {
		t.Errorf("scaled matrix hash = %s, golden da46b9f110a16c88", h)
	}
	if h := hashMatrix(Xb); h != "efc5fc5f28926925" {
		t.Errorf("binary matrix hash = %s, golden efc5fc5f28926925", h)
	}
	ones := 0
	for _, row := range Xb {
		for _, v := range row {
			if v != 0 {
				ones++
			}
		}
	}
	if ones != 2004 {
		t.Errorf("binary ones = %d, golden 2004", ones)
	}
	spot := []float64{0.6962115796997855, 1, 0.6962115796997855, 1, 0.6962115796997855}
	for i, want := range spot {
		if X[0][i] != want {
			t.Errorf("X[0][%d] = %v, golden %v", i, X[0][i], want)
		}
	}
	for i := range y {
		if yp[i] != y[i] {
			t.Fatalf("packed label %d = %v, dense %v", i, yp[i], y[i])
		}
	}

	// Projecting and training through the packed kernel must reproduce the
	// golden weights on the real corpus.
	idx := make([]int, 0, 64)
	for j := 0; j < 64; j++ {
		idx = append(idx, j*12)
	}
	pcfg := perceptron.DefaultConfig()
	pcfg.Epochs = 60
	pcfg.Seed = 3
	rowsP, _ := trace.Bits(m, ds, idx)
	packed := perceptron.New(len(idx), pcfg)
	packed.Fit(rowsP, yp)
	if h := hashMatrix([][]float64{packed.W, {packed.Bias}}); h != "dda33e6daf359e75" {
		t.Errorf("packed weight hash = %s, golden dda33e6daf359e75", h)
	}

	// Incremental training replayed from a zero state must be bit-identical
	// to the one-shot batch fit on the same corpus: the 60-epoch budget is
	// spent in 20-epoch legs, each resuming from the serialized optimizer
	// state the previous leg returned — the continual-learning contract the
	// checkpoint lineage (Lineage.Trainer) depends on.
	inc := perceptron.New(len(idx), pcfg)
	var st perceptron.TrainerState
	legs := 0
	for st.Epochs < 60 && !st.Converged {
		var err error
		st, err = inc.FitIncremental(st, rowsP, yp, 20)
		if err != nil {
			t.Fatalf("incremental leg %d: %v", legs, err)
		}
		legs++
	}
	if legs == 0 || legs > 3 {
		t.Fatalf("incremental fit took %d legs, want 1..3", legs)
	}
	if inc.Bias != packed.Bias {
		t.Fatalf("incremental bias %v != batch %v", inc.Bias, packed.Bias)
	}
	for j := range inc.W {
		if inc.W[j] != packed.W[j] {
			t.Fatalf("incremental W[%d] = %v, batch %v", j, inc.W[j], packed.W[j])
		}
	}
}
