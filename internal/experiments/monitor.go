package experiments

import (
	"context"

	"perspectron"
	"perspectron/internal/encoding"
	"perspectron/internal/eval"
	"perspectron/internal/trace"
	"perspectron/internal/workload"
)

// record simulates one monitored run of p at the config's run length and
// interval. The experiments' runs are never cancelled and their workloads
// never panic, so an error is a bug and panics.
func record(p workload.Program, cfg Config, seed int64) *perspectron.Recording {
	rec, err := perspectron.Record(context.Background(), p, cfg.MaxInsts, seed, cfg.Interval)
	if err != nil {
		panic(err)
	}
	return rec
}

// modelScorer scores monitored samples with a model trained on the corpus:
// encode is the dataset encoder the model's training rows came from
// (trace.Bits or trace.Scaled) over the corpus maxima enc and the feature
// indices idx, so a monitored sample is encoded exactly as a training row.
type modelScorer[V any] struct {
	enc       *encoding.Encoding
	idx       []int
	encode    func(*encoding.Encoding, *trace.Dataset, []int) ([]V, []float64)
	clf       eval.Model[V]
	threshold float64
}

// scores encodes samples (raw delta vectors at their execution points) and
// returns the model score of each.
func (s *modelScorer[V]) scores(samples []trace.Sample) []float64 {
	X, _ := s.encode(s.enc, &trace.Dataset{Samples: samples}, s.idx)
	out := make([]float64, len(X))
	for i, x := range X {
		out[i] = s.clf.Score(x)
	}
	return out
}

// Verdict summarizes one monitored run's detection outcome.
type Verdict struct {
	Name      string
	Scores    []float64
	FirstFlag int // -1 if never flagged
	FirstLeak int // -1 if the run never disclosed
	// Detected: flagged at some point. PreLeak: flagged no later than the
	// sample in which the first disclosure completed.
	Detected bool
	PreLeak  bool
}

// verdict scores a recorded run sample by sample.
func (s *modelScorer[V]) verdict(rec *perspectron.Recording) Verdict {
	v := Verdict{Name: rec.Workload, FirstFlag: -1, FirstLeak: -1}
	if len(rec.LeakSamples) > 0 {
		v.FirstLeak = rec.LeakSamples[0]
	}
	samples := make([]trace.Sample, len(rec.Samples))
	for i, raw := range rec.Samples {
		samples[i] = trace.Sample{Index: i, Raw: raw}
	}
	v.Scores = s.scores(samples)
	for i, score := range v.Scores {
		if score >= s.threshold {
			v.FirstFlag = i
			break
		}
	}
	v.Detected = v.FirstFlag >= 0
	v.PreLeak = v.Detected && (v.FirstLeak < 0 || v.FirstFlag <= v.FirstLeak)
	return v
}
