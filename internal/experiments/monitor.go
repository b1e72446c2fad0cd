package experiments

import (
	"math/rand"

	"perspectron/internal/ml"
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

// modelScorer scores monitored runs with a trained classifier over an
// encoder built from the training corpus.
type modelScorer struct {
	enc       *trace.Encoder
	idx       []int // feature projection (nil = all)
	binary    bool
	clf       ml.Classifier
	threshold float64
}

// scoreAt encodes one raw delta vector (at execution point j) and
// returns the classifier score.
func (s *modelScorer) scoreAt(raw []float64, j int) float64 {
	var vec []float64
	if s.binary {
		vec = s.enc.BinarizeAt(raw, j)
	} else {
		vec = s.enc.ScaleAt(raw, j)
	}
	if s.idx != nil {
		p := make([]float64, len(s.idx))
		for i, f := range s.idx {
			p[i] = vec[f]
		}
		vec = p
	}
	return s.clf.Score(vec)
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
func (s *modelScorer) verdict(run MonitoredRun) Verdict {
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
