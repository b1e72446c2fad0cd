package perspectron

// Recorded runs: the batch unit of monitoring. Record simulates a workload
// once; Detector.Replay and Classifier.Replay score the recording. Faults
// rewrite only vectors already sampled, so one recording replayed under many
// fault schedules stands in for one simulation per schedule.
// MonitorWithPolicy stays live instead: its mitigations change the run.

import (
	"context"
	"fmt"

	"perspectron/internal/faults"
	"perspectron/internal/sim"
	"perspectron/internal/stats"
	"perspectron/internal/telemetry"
	"perspectron/internal/trace"
	"perspectron/internal/workload"
)

// Recording is one simulated workload run, kept for replay.
type Recording struct {
	Workload  string // workload name
	Malicious bool   // ground truth
	// Interval is the sampling granularity in committed instructions; a
	// model replays only recordings sampled at its own interval.
	Interval uint64
	// Samples holds the machine-width raw counter-delta vector of every
	// sampling interval, in execution order.
	Samples [][]float64
	// LeakSamples lists the sample indices at which disclosures completed
	// (trace.LeakSamples); every entry is below len(Samples).
	LeakSamples []int

	reg *stats.Registry // the recording machine's counter space
}

// Record runs w for up to maxInsts committed instructions (0 means the
// workload's natural end) on a fresh machine, sampling every interval
// committed instructions; seed drives the workload's data-dependent
// behaviour. Cancelling ctx ends the run early and surfaces as the
// context's error; a panicking workload is an error too.
func Record(ctx context.Context, w Workload, maxInsts uint64, seed int64, interval uint64) (*Recording, error) {
	if w == nil {
		return nil, fmt.Errorf("perspectron: no workload to record")
	}
	info := w.Info()
	_, span := telemetry.Get().StartSpan(ctx, "record")
	defer span.End()

	m := sim.NewMachine()
	src := trace.NewSource(ctx, m, w, 0, seed, maxInsts, interval)
	rec := &Recording{Workload: info.Name, Malicious: info.Label == workload.Malicious, Interval: interval, reg: m.Reg}
	for s, ok := src.Next(); ok; s, ok = src.Next() {
		rec.Samples = append(rec.Samples, s.Raw)
	}
	err := ctx.Err()
	if err == nil {
		err = src.Err()
	}
	if err != nil {
		return nil, fmt.Errorf("perspectron: monitoring %s: %w", info.Name, err)
	}
	rec.LeakSamples = src.LeakSamples()
	return rec, nil
}

// replay hands every sample of rec, in order, to fn with a scorer for the
// model pair resolved on the recording machine's counter space, and returns
// that scorer. A non-nil fc is compiled into a fault schedule applied to a
// scratch copy of each sample, so rec is never written.
func (rec *Recording) replay(det *Detector, cls *Classifier, interval uint64, fc *FaultConfig, fn func(*RawScorer, RawSample)) (*RawScorer, error) {
	if rec.reg == nil {
		return nil, fmt.Errorf("perspectron: recording %q was not made by Record", rec.Workload)
	}
	if rec.Interval != interval {
		return nil, fmt.Errorf("perspectron: recording %q samples every %d instructions, the model every %d",
			rec.Workload, rec.Interval, interval)
	}
	detIdx, clsIdx, err := resolveModels(rec.reg, det, cls)
	if err != nil {
		return nil, err
	}
	var sched *faults.Schedule
	if fc != nil {
		if sched, err = fc.schedule(rec.reg); err != nil {
			return nil, err
		}
	}
	scorer := newRawScorer(det, detIdx, cls, clsIdx)
	var scratch []float64
	for i, raw := range rec.Samples {
		if sched != nil {
			scratch = append(scratch[:0], raw...)
			sched.ApplyOne(i, scratch)
			raw = scratch
		}
		fn(scorer, RawSample{Sample: i, Raw: raw})
	}
	return scorer, nil
}
