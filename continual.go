package perspectron

// Continual training: grow a trained detector with fresh samples instead of
// refitting from scratch. Train (perspectron.go) reruns the whole pipeline
// — collection, feature selection, a full fit — which is the right tool for
// a vendor patch but far too heavy for a background shadow trainer running
// every few seconds. TrainIncrement keeps the detector's feature selection
// and normalization frozen, encodes the fresh corpus into that frozen
// space, and resumes the perceptron from the checkpoint's serialized
// optimizer state (Lineage.Trainer), so each round costs only its epoch
// budget and the resulting weights are exactly what an uninterrupted longer
// fit over the same sample schedule would have produced.

import (
	"fmt"
	"math"

	"perspectron/internal/corpus"
	"perspectron/internal/encoding"
	"perspectron/internal/perceptron"
	"perspectron/internal/telemetry"
	"perspectron/internal/trace"
)

// DefaultIncrementEpochs is the per-round epoch budget when the caller
// passes none — small enough to interleave with serving, large enough to
// absorb a fresh batch.
const DefaultIncrementEpochs = 50

// IncrementStats describes one TrainIncrement round.
type IncrementStats struct {
	// Samples is the fresh-corpus size trained on this round.
	Samples int
	// Epochs is the number of epochs this round ran (≤ budget).
	Epochs int
	// Converged reports whether the fit converged within the budget.
	Converged bool
	// FiringRates is the per-feature firing rate over the fresh rows — the
	// observed feature distribution this round.
	FiringRates []float64
	// Drift is the mean absolute difference between FiringRates and the
	// lineage's training-time snapshot, in [0, 1]; 0 when the parent
	// checkpoint carries no snapshot.
	Drift float64
}

// TrainIncrement returns a new detector trained incrementally from d on
// fresh samples collected from workloads: same feature selection, same
// normalization maxima, same threshold and interval — only the weights move,
// resumed from the checkpoint's optimizer state so training continues rather
// than restarts. The child's lineage records d as parent; d itself is not
// modified. budget ≤ 0 uses DefaultIncrementEpochs.
//
// Callers vary opts.Seed per round so successive increments train on fresh
// data; collection goes through the process-wide corpus store either way.
func (d *Detector) TrainIncrement(workloads []Workload, opts Options, budget int) (*Detector, IncrementStats, error) {
	var stats IncrementStats
	if len(workloads) == 0 {
		return nil, stats, fmt.Errorf("perspectron: no incremental workloads")
	}
	if budget <= 0 {
		budget = DefaultIncrementEpochs
	}
	opts.Interval = d.Interval
	ds := corpus.Default().Dataset(workloads, opts.CollectConfig())
	b, m := ds.ClassCounts()
	if b == 0 || m == 0 {
		return nil, stats, fmt.Errorf("perspectron: incremental corpus needs both classes (benign=%d malicious=%d)", b, m)
	}

	// Encode the fresh samples into the detector's frozen feature space:
	// selected names mapped onto the dataset's positions (missing counters
	// masked), binarized against the embedded training-time maxima.
	nf := len(d.FeatureNames)
	idx, _ := resolveNames(d.FeatureNames, ds.FeatureNames)
	enc := d.encoding()
	rows := make([]encoding.BitVec, len(ds.Samples))
	y := make([]float64, len(ds.Samples))
	for i := range ds.Samples {
		s := &ds.Samples[i]
		rows[i], _ = enc.BitsPacked(s.Raw, idx, s.Index, nil)
		y[i] = trace.LabelValue(s.Label)
	}
	stats.Samples = len(rows)
	stats.FiringRates = firingRates(rows, nf)
	if d.Lineage != nil && len(d.Lineage.FeatureMeans) == nf {
		stats.Drift = meanAbsDiff(stats.FiringRates, d.Lineage.FeatureMeans)
	}

	// Resume the optimizer. The perceptron is rebuilt with the original
	// training config (the trainer state's seed wins inside resumeOrNew),
	// its weights copied so d stays untouched.
	pcfg := perceptron.DefaultConfig()
	pcfg.Threshold = d.Threshold
	pcfg.Seed = opts.Seed
	perc := perceptron.New(nf, pcfg)
	perc.W = append([]float64(nil), d.Weights...)
	perc.Bias = d.Bias
	var st perceptron.TrainerState
	prevSamples, prevEpochs, generation := 0, 0, 0
	if d.Lineage != nil {
		prevSamples = d.Lineage.TrainedSamples
		generation = d.Lineage.Generation
		if d.Lineage.Trainer != nil {
			st = d.Lineage.Trainer.Clone()
			prevEpochs = st.Epochs
		}
	}
	newSt, err := perc.FitIncremental(st, rows, y, budget)
	if err != nil {
		return nil, stats, fmt.Errorf("perspectron: resuming training: %w", err)
	}
	stats.Epochs = newSt.Epochs - prevEpochs
	stats.Converged = newSt.Converged
	publishFitGauges(stats.Epochs, perc)

	child := &Detector{
		FeatureNames: d.FeatureNames,
		Weights:      perc.W,
		Bias:         perc.Bias,
		Threshold:    d.Threshold,
		Interval:     d.Interval,
		GlobalMax:    d.GlobalMax,
		PointMax:     d.PointMax,
		Lineage: &Lineage{
			Parent:         d.Checksum,
			Generation:     generation + 1,
			TrainedSamples: prevSamples + len(rows),
			Trainer:        &newSt,
			FeatureMeans:   blendMeans(d.Lineage, stats.FiringRates, prevSamples, len(rows)),
		},
	}
	reg := telemetry.Get()
	reg.Counter("perspectron_train_increments_total").Inc()
	if reg.HasEventSink() {
		reg.Event("train.increment", map[string]any{
			"parent":     d.Version(),
			"generation": child.Lineage.Generation,
			"samples":    stats.Samples,
			"epochs":     stats.Epochs,
			"drift":      stats.Drift,
		})
	}
	return child, stats, nil
}

// blendMeans folds the fresh firing rates into the lineage's snapshot,
// weighted by cumulative sample counts, so the baseline tracks everything
// the weights have seen rather than only the first or latest batch.
func blendMeans(parent *Lineage, fresh []float64, prevSamples, freshSamples int) []float64 {
	if parent == nil || len(parent.FeatureMeans) != len(fresh) || prevSamples <= 0 {
		return append([]float64(nil), fresh...)
	}
	total := float64(prevSamples + freshSamples)
	out := make([]float64, len(fresh))
	for j := range fresh {
		out[j] = (parent.FeatureMeans[j]*float64(prevSamples) + fresh[j]*float64(freshSamples)) / total
	}
	return out
}

// meanAbsDiff returns the mean absolute per-feature difference of two
// equal-length rate vectors.
func meanAbsDiff(a, b []float64) float64 {
	if len(a) == 0 {
		return 0
	}
	sum := 0.0
	for j := range a {
		sum += math.Abs(a[j] - b[j])
	}
	return sum / float64(len(a))
}
