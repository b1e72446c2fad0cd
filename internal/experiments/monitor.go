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

// modelScorer scores recorded runs with a trained model over an encoder
// built from the training corpus: encode turns one raw delta vector, taken
// at an execution point, into the model's input.
type modelScorer[V any] struct {
	encode    func(raw []float64, point int) V
	clf       eval.Model[V]
	threshold float64
}

// bitsAt encodes one raw delta vector as its bit-packed k-sparse vector over
// the feature indices idx — the perceptron family's input.
func bitsAt(enc *trace.Encoder, idx []int) func([]float64, int) encoding.BitVec {
	return func(raw []float64, j int) encoding.BitVec { return enc.BitsAt(raw, j, idx) }
}

// scaledAt encodes one raw delta vector as its scaled row over the feature
// indices idx (nil = all) — the ml baselines' input.
func scaledAt(enc *trace.Encoder, idx []int) func([]float64, int) []float64 {
	return func(raw []float64, j int) []float64 {
		x := enc.M.Scale(raw, j, nil)
		if idx != nil {
			x = trace.Project([][]float64{x}, idx)[0]
		}
		return x
	}
}

// scoreAt encodes one raw delta vector (at execution point j) and
// returns the model score.
func (s *modelScorer[V]) scoreAt(raw []float64, j int) float64 {
	return s.clf.Score(s.encode(raw, j))
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
	for i, raw := range rec.Samples {
		score := s.scoreAt(raw, i)
		v.Scores = append(v.Scores, score)
		if v.FirstFlag < 0 && score >= s.threshold {
			v.FirstFlag = i
		}
	}
	v.Detected = v.FirstFlag >= 0
	v.PreLeak = v.Detected && (v.FirstLeak < 0 || v.FirstFlag <= v.FirstLeak)
	return v
}
