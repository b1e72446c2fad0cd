package trace

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"perspectron/internal/isa"
	"perspectron/internal/sim"
	"perspectron/internal/telemetry"
	"perspectron/internal/workload"
)

// RunSource streams one program run on a simulated machine — the shared
// per-sample producer behind Collect, perspectron.Record and the streaming
// Session. The workload stream, machine run loop and sample labelling all
// live here, so the batch and online paths cannot diverge.
type RunSource struct {
	ch        chan *Sample
	done      chan struct{}
	closeOnce sync.Once
	produced  *telemetry.Counter // samples delivered; nil when disabled

	mu    sync.Mutex
	leaks []int // LeakSamples of the delivered run
	err   error // workload panic converted to an error
}

// NewRunSource starts streaming prog for up to cfg.MaxInsts committed
// instructions on machine m, sampling every cfg.Interval. The machine must
// be fully configured (detectors resolved) before the call; it is driven
// from a background goroutine until the source is drained or closed. run
// tags the produced samples' Run field; seed drives the workload's
// data-dependent behaviour. A cfg.Timeout or cancellable ctx bounds the
// run's wall clock as in Collect. A panicking workload ends the stream
// early and surfaces through Err.
func NewRunSource(ctx context.Context, m *sim.Machine, prog workload.Program, run int, seed int64, cfg CollectConfig) *RunSource {
	src := &RunSource{
		ch:       make(chan *Sample),
		done:     make(chan struct{}),
		produced: telemetry.Get().Counter("perspectron_source_samples_total"),
	}
	info := prog.Info()
	go func() {
		defer close(src.ch)
		defer func() {
			if r := recover(); r != nil {
				src.mu.Lock()
				src.err = fmt.Errorf("run panicked: %v", r)
				src.mu.Unlock()
			}
		}()
		stream := prog.Stream(rand.New(rand.NewSource(seed)))
		delivered := 0
		runCtx := ctx
		if cfg.Timeout > 0 {
			var cancel context.CancelFunc
			runCtx, cancel = context.WithTimeout(ctx, cfg.Timeout)
			defer cancel()
		}
		m.RunStreamCtx(runCtx, stream, cfg.MaxInsts, cfg.Interval, func(idx int, v []float64) bool {
			s := &Sample{
				Program:  info.Name,
				Category: info.Category,
				Channel:  info.Channel,
				Label:    info.Label,
				Run:      run,
				Index:    idx,
				Raw:      v,
			}
			select {
			case src.ch <- s:
				delivered++
				return true
			case <-src.done:
				return false
			}
		})
		src.mu.Lock()
		src.leaks = LeakSamples(stream, cfg.Interval, delivered)
		src.mu.Unlock()
	}()
	return src
}

// Next returns the next sample in execution order, or false when the run
// has ended — after which Err and LeakSamples are valid — or when ctx ends
// before the next sample arrives (the serving runtime's per-sample
// deadline). Distinguish the outcomes by ctx.Err(): nil means the run
// genuinely ended. After a deadline the underlying run keeps producing; a
// caller that abandons the source must Close it to release the producer.
func (s *RunSource) Next(ctx context.Context) (*Sample, bool) {
	select {
	case smp, ok := <-s.ch:
		if ok {
			s.produced.Inc()
		}
		return smp, ok
	case <-ctx.Done():
		return nil, false
	}
}

// Close stops the underlying run at its next instruction fetch and releases
// the producer goroutine. Safe to call more than once and concurrently with
// Next.
func (s *RunSource) Close() {
	s.closeOnce.Do(func() { close(s.done) })
	for range s.ch { // drain whatever was in flight
	}
}

// Err reports a workload panic that ended the stream. Valid once Next has
// returned false (or Close returned).
func (s *RunSource) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// LeakSamples returns LeakSamples over the delivered samples. Valid once
// Next has returned false (or Close returned).
func (s *RunSource) LeakSamples() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.leaks
}

// LeakSamples is the one mapping from a workload stream's completed-
// disclosure marks to sample indices: mark m lies in sample m/interval, and
// marks at or past the samples intervals actually delivered are dropped.
// Streams that record no marks (benign kernels) yield nil.
func LeakSamples(stream isa.Stream, interval uint64, samples int) []int {
	ls, ok := stream.(*workload.LoopStream)
	if !ok {
		return nil
	}
	var out []int
	for _, mark := range ls.LeakMarks() {
		if s := int(mark / interval); s < samples {
			out = append(out, s)
		}
	}
	return out
}
