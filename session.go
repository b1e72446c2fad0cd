package perspectron

// Streaming sessions: the producer half of every scoring path. A Session
// runs one workload on a fresh machine and hands back raw counter-delta
// samples one sampling interval at a time, so a caller can apply per-sample
// deadlines, walk the degradation ladder mid-run, and shut down promptly.
// Sessions never score: every sample→verdict step goes through a RawScorer
// (batch.go), whether the caller is Monitor, Classify or the serving runtime
// (internal/serve). Sessions resolve their own counter indices — the
// Detector/Classifier is never mutated — so any number of concurrent
// Sessions can share one immutable model, and a hot-reload can swap the
// model under new Sessions while old ones finish on the previous version.

import (
	"context"
	"fmt"

	"perspectron/internal/sim"
	"perspectron/internal/trace"
)

// resolveNames maps feature names onto counter indices for machine m without
// touching any model state: counters absent from the machine resolve to -1
// and are masked during scoring.
func resolveNames(names []string, m *sim.Machine) (indices []int, resolved int) {
	indices = make([]int, len(names))
	for i, name := range names {
		if c, ok := m.Reg.Lookup(name); ok {
			indices[i] = c.Index()
			resolved++
		} else {
			indices[i] = -1
		}
	}
	return indices, resolved
}

// resolveModels resolves a model pair's feature names on machine m. Either
// model may be nil. Missing counters are masked (the degraded serving mode,
// mirroring the paper's replicated-detector argument that a partial signature
// still scores); the only error is a primary model — the detector, or the
// classifier when there is no detector — of which no counter exists on m.
func resolveModels(m *sim.Machine, det *Detector, cls *Classifier) (detIdx, clsIdx []int, err error) {
	if det != nil {
		idx, resolved := resolveNames(det.FeatureNames, m)
		if resolved == 0 {
			return nil, nil, fmt.Errorf("perspectron: none of the detector's %d counters are present on this machine",
				len(det.FeatureNames))
		}
		detIdx = idx
	}
	if cls != nil {
		idx, resolved := resolveNames(cls.FeatureNames, m)
		if resolved == 0 && det == nil {
			return nil, nil, fmt.Errorf("perspectron: none of the classifier's %d counters are present on this machine",
				len(cls.FeatureNames))
		}
		clsIdx = idx
	}
	return detIdx, clsIdx, nil
}

// SessionConfig configures one streaming scoring session.
type SessionConfig struct {
	// Workload is the program to run. Required.
	Workload Workload
	// MaxInsts bounds the run's committed-path length; 0 means the
	// workload's natural end.
	MaxInsts uint64
	// Seed drives the workload's data-dependent behaviour.
	Seed int64
	// Faults optionally injects counter-level faults (see FaultConfig);
	// nil runs clean.
	Faults *FaultConfig
}

// Session streams one workload run for a detector and/or classifier, one
// sampling interval at a time. Create with NewSession, pull samples with
// NextRaw, and Close when done (Close is mandatory on early abandonment —
// it releases the producer goroutine).
type Session struct {
	det    *Detector
	cls    *Classifier
	detIdx []int
	clsIdx []int
	src    *trace.RunSource
}

// NewSession starts a streaming session for cfg.Workload. Either model may
// be nil, but not both; when both are present the detector's sampling
// interval drives the run and the classifier scores the same raw deltas.
// ctx bounds the whole run (the producer observes it between instruction
// blocks); per-sample deadlines go to NextRaw instead.
func NewSession(ctx context.Context, det *Detector, cls *Classifier, cfg SessionConfig) (*Session, error) {
	if det == nil && cls == nil {
		return nil, fmt.Errorf("perspectron: session needs a detector or a classifier")
	}
	if cfg.Workload == nil {
		return nil, fmt.Errorf("perspectron: session needs a workload")
	}
	m := sim.NewMachine(sim.DefaultConfig())
	detIdx, clsIdx, err := resolveModels(m, det, cls)
	if err != nil {
		return nil, err
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.attach(m); err != nil {
			return nil, err
		}
	}
	var interval uint64
	if det != nil {
		interval = det.Interval
	} else {
		interval = cls.Interval
	}
	s := &Session{det: det, cls: cls, detIdx: detIdx, clsIdx: clsIdx}
	s.src = trace.NewRunSource(ctx, m, cfg.Workload, 0, cfg.Seed,
		trace.CollectConfig{MaxInsts: cfg.MaxInsts, Interval: interval})
	return s, nil
}

// NextRaw returns the next interval's raw sample, or false when the run has
// ended or ctx expired first. Distinguish the two by ctx.Err(): nil means
// the run genuinely ended (check Err for a workload panic). After a deadline
// the session remains usable — the producer keeps the sample for a later
// NextRaw.
func (s *Session) NextRaw(ctx context.Context) (RawSample, bool) {
	smp, ok := s.src.NextCtx(ctx)
	if !ok {
		return RawSample{}, false
	}
	return RawSample{Sample: smp.Index, Raw: smp.Raw}, true
}

// scorer returns a RawScorer over the session's model pair and the counter
// indices the session resolved on its machine.
func (s *Session) scorer() *RawScorer {
	return newRawScorer(s.det, s.detIdx, s.cls, s.clsIdx)
}

// Err reports a workload panic that ended the stream; valid once NextRaw
// has returned false with a live ctx, or after Close.
func (s *Session) Err() error { return s.src.Err() }

// LeakMarks exposes the workload's completed-disclosure marks (attack loops
// record them); valid once the run has ended.
func (s *Session) LeakMarks() []uint64 { return s.src.LeakMarks() }

// Close stops the underlying run and releases the producer goroutine. Safe
// to call more than once.
func (s *Session) Close() { s.src.Close() }
