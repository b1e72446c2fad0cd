package experiments

import (
	"math/rand"

	"perspectron/internal/encoding"
	"perspectron/internal/eval"
	"perspectron/internal/sim"
	"perspectron/internal/trace"
	"perspectron/internal/workload"
)

// MonitoredRun is one program execution with per-interval counter deltas and
// the sample indices at which disclosures completed.
type MonitoredRun struct {
	Name        string
	Category    string
	Samples     [][]float64
	LeakSamples []int
}

// collectRun executes one program and records samples plus leak marks.
func collectRun(p workload.Program, cfg Config, seed int64) MonitoredRun {
	m := sim.NewMachine(sim.DefaultConfig())
	stream := p.Stream(rand.New(rand.NewSource(seed)))
	vecs := m.Run(stream, cfg.MaxInsts, cfg.Interval)
	run := MonitoredRun{Name: p.Info().Name, Category: p.Info().Category, Samples: vecs}
	if ls, ok := stream.(*workload.LoopStream); ok {
		for _, mark := range ls.LeakMarks() {
			s := int(mark / cfg.Interval)
			if s < len(vecs) {
				run.LeakSamples = append(run.LeakSamples, s)
			}
		}
	}
	return run
}

// collectRuns monitors a list of programs.
func collectRuns(progs []workload.Program, cfg Config) []MonitoredRun {
	out := make([]MonitoredRun, len(progs))
	for i, p := range progs {
		out[i] = collectRun(p, cfg, cfg.Seed+int64(i)*101)
	}
	return out
}

// modelScorer scores monitored runs with a trained model over an encoder
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

// verdict scores a run sample by sample.
func (s *modelScorer[V]) verdict(run MonitoredRun) Verdict {
	v := Verdict{Name: run.Name, FirstFlag: -1, FirstLeak: -1}
	if len(run.LeakSamples) > 0 {
		v.FirstLeak = run.LeakSamples[0]
	}
	for i, raw := range run.Samples {
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
