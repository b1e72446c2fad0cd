package eval

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"testing"

	"perspectron/internal/encoding"
	"perspectron/internal/ml"
	"perspectron/internal/perceptron"
	"perspectron/internal/stats"
	"perspectron/internal/trace"
	"perspectron/internal/workload"
)

// synthDataset builds a deterministic dataset where feature 0 perfectly
// separates the classes. Attack categories carry channels so the channel-
// pairing logic can be exercised.
func synthDataset() *trace.Dataset {
	ds := &trace.Dataset{
		FeatureNames: []string{"sig", "noise"},
		Components:   []stats.Component{stats.CompCommit, stats.CompFetch},
		Interval:     10_000,
	}
	add := func(prog, cat, ch string, label workload.Label, sig float64, n int) {
		for i := 0; i < n; i++ {
			ds.Samples = append(ds.Samples, trace.Sample{
				Program: prog, Category: cat, Channel: ch, Label: label,
				Run: 0, Index: i,
				Raw: []float64{sig, float64(i % 3)},
			})
		}
	}
	// Multi-channel attack categories.
	for _, cat := range []string{"spectre_v1", "spectre_v2", "spectre_rsb",
		"meltdown", "cacheout"} {
		add(cat+"-fr", cat, "fr", workload.Malicious, 10, 6)
		add(cat+"-pp", cat, "pp", workload.Malicious, 10, 6)
	}
	// Fixed-channel attacks.
	add("flush+reload", "flush_reload", "fr", workload.Malicious, 10, 6)
	add("flush+flush", "flush_flush", "ff", workload.Malicious, 10, 6)
	add("prime+probe", "prime_probe", "pp", workload.Malicious, 10, 6)
	add("breakingKSLR", "breaking_kslr", "fr", workload.Malicious, 10, 6)
	// Benign programs.
	for _, p := range []string{"b1", "b2", "b3", "b4", "b5", "b6"} {
		add(p, "spec_benign", "", workload.Benign, 0, 10)
	}
	return ds
}

func TestCrossValidatePerfectSeparation(t *testing.T) {
	ds := synthDataset()
	res := CrossValidate(ds, func() Model[[]float64] { return ml.NewLogReg() }, trace.Scaled,
		CVConfig{Folds: TableIIIFolds(), Threshold: 0})
	if res.MeanAccuracy < 0.99 {
		t.Fatalf("accuracy %.3f on perfectly separable data", res.MeanAccuracy)
	}
	if len(res.Folds) != 3 {
		t.Fatalf("folds = %d", len(res.Folds))
	}
	for i, f := range res.Folds {
		if f.AUC < 0.99 {
			t.Fatalf("fold %d AUC = %.3f", i, f.AUC)
		}
		if len(f.Scores) != len(f.Labels) || len(f.Scores) == 0 {
			t.Fatalf("fold %d scores/labels missing", i)
		}
	}
}

func TestCrossValidateHoldsOutCategories(t *testing.T) {
	ds := synthDataset()
	// A classifier that records training categories is hard to build from
	// outside; instead verify via the fold outputs: every fold must have
	// tested its held-out categories.
	res := CrossValidate(ds, func() Model[[]float64] { return ml.NewCART() }, trace.Scaled,
		CVConfig{Folds: TableIIIFolds(), Threshold: 0})
	for i, fold := range TableIIIFolds() {
		for _, cat := range fold.TestCategories {
			if _, ok := res.Folds[i].PerCatTP[cat]; !ok {
				t.Fatalf("fold %d did not test %s", i, cat)
			}
		}
	}
}

func TestChannelPairing(t *testing.T) {
	ds := synthDataset()
	// Multi-channel categories must be tested only on the fold's test
	// channel; fixed-channel ones on their native channel.
	fold := Fold{TestCategories: []string{"spectre_v1", "prime_probe"}, TestChannel: "fr"}
	res := CrossValidate(ds, func() Model[[]float64] { return ml.NewLogReg() }, trace.Scaled,
		CVConfig{Folds: []Fold{fold}, Threshold: 0})
	f := res.Folds[0]
	if _, ok := f.PerCatTP["spectre_v1"]; !ok {
		t.Fatalf("multi-channel category missing from test")
	}
	if _, ok := f.PerCatTP["prime_probe"]; !ok {
		t.Fatalf("fixed-channel category dropped by channel pairing")
	}
	// Test set size: spectre_v1-fr only (6) + prime_probe (6) + benign
	// slice (2 of 6 programs * 10).
	if f.Metrics.TP+f.Metrics.FN != 12 {
		t.Fatalf("malicious test samples = %d, want 12", f.Metrics.TP+f.Metrics.FN)
	}
}

func TestCategoryTPRateAggregation(t *testing.T) {
	ds := synthDataset()
	res := CrossValidate(ds, func() Model[[]float64] { return ml.NewLogReg() }, trace.Scaled,
		CVConfig{Folds: TableIIIFolds(), Threshold: 0})
	rate, folds := res.CategoryTPRate("cacheout")
	if folds != 3 {
		t.Fatalf("cacheout tested in %d folds, want 3", folds)
	}
	if rate < 0.99 {
		t.Fatalf("cacheout TP rate %.3f", rate)
	}
	if _, folds := res.CategoryTPRate("nonexistent"); folds != 0 {
		t.Fatalf("nonexistent category reported tested")
	}
}

func TestFalsePositiveProgramsThreshold(t *testing.T) {
	// An always-positive classifier flags every benign sample.
	res := CrossValidate(synthDataset(), func() Model[[]float64] {
		return constantClassifier{1}
	}, trace.Scaled, CVConfig{Folds: TableIIIFolds(), Threshold: 0})
	fps := res.FalsePositivePrograms(2)
	if len(fps) != 6 {
		t.Fatalf("FP programs = %v, want all 6 benign", fps)
	}
	if got := res.FalsePositivePrograms(1000); len(got) != 0 {
		t.Fatalf("high threshold still lists %v", got)
	}
}

type constantClassifier struct{ v float64 }

func (c constantClassifier) Fit([][]float64, []float64) {}
func (c constantClassifier) Score(x []float64) float64  { return c.v }

func TestAccuraciesAndConfidence(t *testing.T) {
	res := CrossValidate(synthDataset(), func() Model[[]float64] { return ml.NewLogReg() }, trace.Scaled,
		CVConfig{Folds: TableIIIFolds(), Threshold: 0})
	accs := res.Accuracies()
	if len(accs) != 3 {
		t.Fatalf("accuracies = %v", accs)
	}
	if res.Confidence < 0 {
		t.Fatalf("negative confidence band")
	}
}

func TestBenignSplitRoundRobin(t *testing.T) {
	ds := synthDataset()
	// Each fold must hold out exactly 2 of the 6 benign programs.
	res := CrossValidate(ds, func() Model[[]float64] { return ml.NewLogReg() }, trace.Scaled,
		CVConfig{Folds: TableIIIFolds(), Threshold: 0})
	for i, f := range res.Folds {
		benignTested := f.Metrics.TN + f.Metrics.FP
		if benignTested != 20 {
			t.Fatalf("fold %d tested %d benign samples, want 20", i, benignTested)
		}
	}
}

// hashScores fingerprints a score vector by its exact bit patterns
// (little-endian IEEE-754 through fnv64a).
func hashScores(s []float64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range s {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestCrossValidatePerceptronGolden pins the perceptron's per-fold CV
// scores on bit-packed k-sparse inputs, over all features, a reordering
// projection and a noise-only projection, to the values the dense binarized
// path produced.
func TestCrossValidatePerceptronGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		idx  []int
		want [3]string
	}{
		{"all", nil, [3]string{"942ca3ad703e2b65", "db828ceb86db6765", "942ca3ad703e2b65"}},
		{"reordered", []int{1, 0}, [3]string{"942ca3ad703e2b65", "db828ceb86db6765", "942ca3ad703e2b65"}},
		{"noise-only", []int{1}, [3]string{"97372a87c45146c5", "9e75518fa8bfeea5", "97372a87c45146c5"}},
	} {
		res := CrossValidate(synthDataset(), func() Model[encoding.BitVec] {
			return perceptron.New(2, perceptron.DefaultConfig())
		}, trace.Bits, CVConfig{Folds: TableIIIFolds(), FeatureIdx: tc.idx, Threshold: 0.25})
		for fi, f := range res.Folds {
			if h := hashScores(f.Scores); h != tc.want[fi] {
				t.Errorf("%s: fold %d score hash = %s, golden %s", tc.name, fi, h, tc.want[fi])
			}
		}
	}
}

// TestCrossValidateIndependentOfWorkers checks that the folds, which run
// concurrently, give the same CVResult at one worker as at four, for a
// seeded neural network over scaled rows and the perceptron over packed
// rows.
func TestCrossValidateIndependentOfWorkers(t *testing.T) {
	cfg := CVConfig{Folds: TableIIIFolds(), Threshold: 0}
	at := func(procs int) (CVResult, CVResult) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		mlp := CrossValidate(synthDataset(), func() Model[[]float64] { return ml.NewMLP() }, trace.Scaled, cfg)
		pct := CrossValidate(synthDataset(), func() Model[encoding.BitVec] {
			return perceptron.New(2, perceptron.DefaultConfig())
		}, trace.Bits, cfg)
		return mlp, pct
	}
	mlp1, pct1 := at(1)
	mlp4, pct4 := at(4)
	if !reflect.DeepEqual(mlp1, mlp4) {
		t.Errorf("MLP CV differs across workers:\n 1: %+v\n 4: %+v", mlp1, mlp4)
	}
	if !reflect.DeepEqual(pct1, pct4) {
		t.Errorf("perceptron CV differs across workers:\n 1: %+v\n 4: %+v", pct1, pct4)
	}
}
