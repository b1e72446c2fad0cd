package experiments

import (
	"context"

	"perspectron"
	"perspectron/internal/encoding"
	"perspectron/internal/eval"
	"perspectron/internal/par"
	"perspectron/internal/trace"
	"perspectron/internal/workload"
)

// monitoredRun is one run an experiment monitors: a program at a config's
// run length and interval, with its seed.
type monitoredRun struct {
	prog workload.Program
	cfg  Config
	seed int64
}

// recordEach simulates the runs concurrently through par.Do, each on its
// own machine and seed, and returns their recordings in run order. The
// experiments' runs are never cancelled and their workloads never panic, so
// an error is a bug and panics.
func recordEach(runs []monitoredRun) []*perspectron.Recording {
	recs := make([]*perspectron.Recording, len(runs))
	par.Do(len(runs), func(i int) {
		r := runs[i]
		rec, err := perspectron.Record(context.Background(), r.prog, r.cfg.MaxInsts, r.seed, r.cfg.Interval)
		if err != nil {
			panic(err)
		}
		recs[i] = rec
	})
	return recs
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
