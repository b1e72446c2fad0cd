package eval

import (
	"sort"

	"perspectron/internal/encoding"
	"perspectron/internal/par"
	"perspectron/internal/trace"
	"perspectron/internal/workload"
)

// Fold describes one cross-validation fold: the attack categories whose
// samples are entirely removed from training (Table III's D_k column), plus
// the disclosure-channel pairing rule of §VI-B — test attacks use
// TestChannel while channel-parameterizable training attacks use anything
// but TestChannel.
type Fold struct {
	TestCategories []string
	TestChannel    string
}

// TableIIIFolds reproduces the paper's three folds. CacheOut is excluded
// from every training fold (footnote 4) and appears in every test fold.
func TableIIIFolds() []Fold {
	return []Fold{
		{TestCategories: []string{"spectre_rsb", "spectre_v2", "cacheout",
			"breaking_kslr", "prime_probe"}, TestChannel: "fr"},
		{TestCategories: []string{"spectre_v1", "spectre_v2", "cacheout",
			"flush_reload"}, TestChannel: "fr"},
		{TestCategories: []string{"spectre_v2", "cacheout", "meltdown",
			"breaking_kslr", "flush_flush"}, TestChannel: "fr"},
	}
}

// FoldResult is the outcome of one fold.
type FoldResult struct {
	Metrics    Metrics
	AUC        float64
	PerCatTP   map[string]float64 // per-category true-positive rate
	FPPrograms map[string]int     // benign programs with false positives

	// Scores and Labels hold the per-test-sample classifier outputs and
	// ground truth (±1), in fold test order — ROC construction pools them.
	Scores []float64
	Labels []float64
}

// CVResult aggregates all folds.
type CVResult struct {
	Folds        []FoldResult
	MeanAccuracy float64
	Confidence   float64 // 1.96σ band
}

// Accuracies returns the per-fold accuracy list.
func (r CVResult) Accuracies() []float64 {
	out := make([]float64, len(r.Folds))
	for i, f := range r.Folds {
		out[i] = f.Metrics.Accuracy()
	}
	return out
}

// Model is what CrossValidate trains per fold, over inputs of type V: the
// ml baselines over scaled rows ([]float64), the perceptron family over
// bit-packed k-sparse rows (encoding.BitVec).
type Model[V any] interface {
	Fit(X []V, y []float64)
	Score(x V) float64
}

// CVConfig controls a cross-validation run.
type CVConfig struct {
	Folds []Fold
	// FeatureIdx restricts the feature space (nil = all features).
	FeatureIdx []int
	// Threshold is the decision threshold on the classifier score.
	Threshold float64
}

// CrossValidate runs attack-holdout CV: per fold it splits the dataset,
// builds the normalization matrix M from training data only, encodes both
// halves with encode (trace.Bits or trace.Scaled, given that fold's M, the
// split and cfg.FeatureIdx), fits a fresh model, and scores the held-out attacks plus
// a held-out benign slice (benign programs are split round-robin so class
// proportions stay roughly balanced, per §VII-B). The folds run
// concurrently through par.Do, each into its own slot: a fold owns its
// split, encoding and model, and ds is only read.
func CrossValidate[V any](ds *trace.Dataset, mk func() Model[V],
	encode func(*encoding.Encoding, *trace.Dataset, []int) ([]V, []float64), cfg CVConfig) CVResult {
	var res CVResult
	benignProgs := benignPrograms(ds)

	// A category is channel-parameterizable when the dataset contains it on
	// more than one disclosure channel; only those categories are subject
	// to the §VI-B train/test channel pairing.
	chanByCat := map[string]map[string]bool{}
	for i := range ds.Samples {
		s := &ds.Samples[i]
		if s.Label != workload.Malicious {
			continue
		}
		if chanByCat[s.Category] == nil {
			chanByCat[s.Category] = map[string]bool{}
		}
		chanByCat[s.Category][s.Channel] = true
	}
	multiChannel := func(cat string) bool { return len(chanByCat[cat]) > 1 }

	runFold := func(fi int, fold Fold) FoldResult {
		testCat := map[string]bool{}
		for _, c := range fold.TestCategories {
			testCat[c] = true
		}
		testBenign := map[string]bool{}
		for i, p := range benignProgs {
			if i%len(cfg.Folds) == fi {
				testBenign[p] = true
			}
		}

		inTest := func(s *trace.Sample) bool {
			if s.Label == workload.Malicious {
				if !testCat[s.Category] {
					return false
				}
				// Channel-parameterizable attacks are tested on the
				// fold's test channel only.
				return !multiChannel(s.Category) || s.Channel == fold.TestChannel
			}
			return testBenign[s.Program]
		}
		inTrain := func(s *trace.Sample) bool {
			if s.Label == workload.Malicious {
				if testCat[s.Category] {
					return false // remove held-out attacks entirely
				}
				// Channel pairing: channel-parameterizable training
				// attacks must not use the fold's test channel.
				return !multiChannel(s.Category) || s.Channel != fold.TestChannel
			}
			return !testBenign[s.Program]
		}

		train := ds.Filter(inTrain)
		test := ds.Filter(inTest)
		if len(train.Samples) == 0 || len(test.Samples) == 0 {
			return FoldResult{}
		}

		m := trace.Maxima(train)
		Xtr, ytr := encode(m, train, cfg.FeatureIdx)
		Xte, yte := encode(m, test, cfg.FeatureIdx)

		clf := mk()
		clf.Fit(Xtr, ytr)

		fr := FoldResult{PerCatTP: map[string]float64{}, FPPrograms: map[string]int{}}
		scores := make([]float64, len(Xte))
		catTP := map[string]int{}
		catN := map[string]int{}
		for i, x := range Xte {
			s := clf.Score(x)
			scores[i] = s
			flagged := s >= cfg.Threshold
			fr.Metrics.Add(flagged, yte[i] > 0)
			smp := &test.Samples[i]
			if yte[i] > 0 {
				catN[smp.Category]++
				if flagged {
					catTP[smp.Category]++
				}
			} else if flagged {
				fr.FPPrograms[smp.Program]++
			}
		}
		for c, n := range catN {
			fr.PerCatTP[c] = float64(catTP[c]) / float64(n)
		}
		fr.AUC = AUC(ROC(scores, yte))
		fr.Scores = scores
		fr.Labels = yte
		return fr
	}

	res.Folds = make([]FoldResult, len(cfg.Folds))
	par.Do(len(cfg.Folds), func(fi int) {
		res.Folds[fi] = runFold(fi, cfg.Folds[fi])
	})

	res.MeanAccuracy, _ = MeanStd(res.Accuracies())
	res.Confidence = Confidence95(res.Accuracies())
	return res
}

func benignPrograms(ds *trace.Dataset) []string {
	seen := map[string]bool{}
	var out []string
	for i := range ds.Samples {
		s := &ds.Samples[i]
		if s.Label == workload.Benign && !seen[s.Program] {
			seen[s.Program] = true
			out = append(out, s.Program)
		}
	}
	sort.Strings(out)
	return out
}

// CategoryTPRate aggregates a category's true-positive rate across folds
// that actually tested it (the §VI-B CacheOut / SpectreV2 generalization
// numbers).
func (r CVResult) CategoryTPRate(category string) (rate float64, folds int) {
	var sum float64
	for _, f := range r.Folds {
		if v, ok := f.PerCatTP[category]; ok {
			sum += v
			folds++
		}
	}
	if folds == 0 {
		return 0, 0
	}
	return sum / float64(folds), folds
}

// FalsePositivePrograms lists benign programs that produced more than
// minCount false positives in any fold (Table IV's FP row).
func (r CVResult) FalsePositivePrograms(minCount int) []string {
	agg := map[string]int{}
	for _, f := range r.Folds {
		for p, n := range f.FPPrograms {
			agg[p] += n
		}
	}
	var out []string
	for p, n := range agg {
		if n > minCount {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}
