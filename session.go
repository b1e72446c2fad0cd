package perspectron

// Streaming sessions: the producer half of every scoring path. A Session
// runs one workload on a fresh machine and hands back raw counter-delta
// samples one sampling interval at a time, so a caller can time each sample,
// walk the degradation ladder mid-run, and shut down promptly.
// Sessions never score: every sample→verdict step goes through a RawScorer
// (batch.go). The serving runtime (internal/serve) streams through Sessions;
// batch monitoring records a whole run instead (record.go). A Session only
// checks its models' counters against its machine — the Detector/Classifier
// is never mutated — so any number of concurrent Sessions can share one
// immutable model, and a hot-reload can swap the model under new Sessions
// while old ones finish on the previous version.

import (
	"context"
	"fmt"

	"perspectron/internal/faults"
	"perspectron/internal/sim"
	"perspectron/internal/stats"
	"perspectron/internal/trace"
)

// resolveNames maps a model's feature names onto their positions in a
// feature space (a machine's counter registry order, or a dataset's feature
// names) without touching any model state: names absent from the space
// resolve to -1 and are masked during scoring. resolved counts the rest.
func resolveNames(names, space []string) (indices []int, resolved int) {
	pos := make(map[string]int, len(space))
	for j, name := range space {
		pos[name] = j
	}
	indices = make([]int, len(names))
	for i, name := range names {
		if j, ok := pos[name]; ok {
			indices[i] = j
			resolved++
		} else {
			indices[i] = -1
		}
	}
	return indices, resolved
}

// resolveModels resolves a model pair's feature names on a machine's
// registry reg. Either model may be nil. Missing counters are masked (the
// degraded serving mode, mirroring the paper's replicated-detector argument
// that a partial signature still scores); the only error is a primary model
// — the detector, or the classifier when there is no detector — of which no
// counter exists on reg.
func resolveModels(reg *stats.Registry, det *Detector, cls *Classifier) (detIdx, clsIdx []int, err error) {
	space := reg.Names()
	if det != nil {
		idx, resolved := resolveNames(det.FeatureNames, space)
		if resolved == 0 {
			return nil, nil, fmt.Errorf("perspectron: none of the detector's %d counters are present on this machine",
				len(det.FeatureNames))
		}
		detIdx = idx
	}
	if cls != nil {
		idx, resolved := resolveNames(cls.FeatureNames, space)
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
	// Faults optionally injects counter-level faults (see FaultConfig) into
	// every sample NextRaw returns; nil runs clean.
	Faults *FaultConfig
}

// Session streams one workload run for a detector and/or classifier, one
// sampling interval at a time. Create with NewSession and pull samples with
// NextRaw, which simulates up to the next sample on the calling goroutine.
type Session struct {
	src    *trace.Source
	faults *faults.Schedule // nil: clean
}

// NewSession prepares a streaming session for cfg.Workload. Either model
// may be nil, but not both; when both are present the detector's sampling
// interval drives the run and the classifier scores the same raw deltas.
// ctx bounds the whole run: the simulator polls it every 1024 instruction
// fetches and, once it ends, drains and delivers what is in flight.
func NewSession(ctx context.Context, det *Detector, cls *Classifier, cfg SessionConfig) (*Session, error) {
	if det == nil && cls == nil {
		return nil, fmt.Errorf("perspectron: session needs a detector or a classifier")
	}
	if cfg.Workload == nil {
		return nil, fmt.Errorf("perspectron: session needs a workload")
	}
	m := sim.NewMachine()
	_, _, err := resolveModels(m.Reg, det, cls)
	if err != nil {
		return nil, err
	}
	s := &Session{}
	if cfg.Faults != nil {
		if s.faults, err = cfg.Faults.schedule(m.Reg); err != nil {
			return nil, err
		}
	}
	var interval uint64
	if det != nil {
		interval = det.Interval
	} else {
		interval = cls.Interval
	}
	s.src = trace.NewSource(ctx, m, cfg.Workload, 0, cfg.Seed, cfg.MaxInsts, interval)
	return s, nil
}

// NextRaw simulates up to the next interval and returns its raw sample, or
// false when the run has ended (check Err for a workload panic) or ctx had
// already ended, in which case nothing is simulated. With
// SessionConfig.Faults set, the fault schedule has already rewritten the
// returned vector: each sample is a fresh vector the simulator no longer
// reads, so injecting here is exactly injecting into the run.
func (s *Session) NextRaw(ctx context.Context) (RawSample, bool) {
	if ctx.Err() != nil {
		return RawSample{}, false
	}
	smp, ok := s.src.Next()
	if !ok {
		return RawSample{}, false
	}
	s.faults.ApplyOne(smp.Index, smp.Raw)
	return RawSample{Sample: smp.Index, Raw: smp.Raw}, true
}

// Err reports a workload panic that ended the stream.
func (s *Session) Err() error { return s.src.Err() }

// Close ends the run where it stands; NextRaw then returns false. Safe to
// call more than once.
func (s *Session) Close() { s.src.Close() }
