package trace

import (
	"context"
	"fmt"
	"math/rand"

	"perspectron/internal/isa"
	"perspectron/internal/sim"
	"perspectron/internal/telemetry"
	"perspectron/internal/workload"
)

// Source streams one program run on a simulated machine — the shared
// per-sample producer behind Collect, perspectron.Record and the streaming
// Session. The workload stream, machine run loop and sample labelling all
// live here, so the batch and online paths cannot diverge. The machine is
// stepped on the goroutine that calls Next.
type Source struct {
	next     Sample // the labels and index of the next sample
	interval uint64
	begin    func() // builds the workload stream and run, inside Next's recover
	stream   isa.Stream
	run      *sim.Run
	done     bool
	err      error // workload panic converted to an error
	produced *telemetry.Counter
}

// NewSource prepares a run of prog for up to maxInsts committed
// instructions on machine m, sampling every interval; nothing runs until
// Next. run tags the samples' Run field; seed drives the workload's
// data-dependent behaviour. Once ctx ends the run stops fetching, drains
// and delivers what the drain completes.
func NewSource(ctx context.Context, m *sim.Machine, prog workload.Program, run int, seed int64, maxInsts, interval uint64) *Source {
	info := prog.Info()
	s := &Source{
		next:     Sample{Program: info.Name, Category: info.Category, Channel: info.Channel, Label: info.Label, Run: run},
		interval: interval,
		produced: telemetry.Get().Counter("perspectron_source_samples_total"),
	}
	s.begin = func() {
		s.stream = prog.Stream(rand.New(rand.NewSource(seed)))
		s.run = m.Start(ctx, s.stream, maxInsts, interval)
	}
	return s
}

// Next simulates up to the next sample and returns it, or false when the
// run has ended. A panicking workload ends the run and surfaces through
// Err.
func (s *Source) Next() (smp Sample, ok bool) {
	if s.done {
		return Sample{}, false
	}
	defer func() {
		if r := recover(); r != nil {
			s.done, s.err = true, fmt.Errorf("run panicked: %v", r)
			smp, ok = Sample{}, false
		}
	}()
	if s.run == nil {
		s.begin()
	}
	v, ok := s.run.Next()
	if !ok {
		s.done = true
		return Sample{}, false
	}
	s.produced.Inc()
	smp = s.next
	smp.Raw = v
	s.next.Index++
	return smp, true
}

// Nest adds a run of the same program cut at maxInsts instructions and
// sampled every interval, simulated inside this one (sim.Run.Nest); call
// it before the first Next. The returned function reports the nested
// run's samples, labelled as this source's, once it has ended, and false
// until then.
func (s *Source) Nest(maxInsts, interval uint64) func() ([]Sample, bool) {
	var n *sim.Nested
	begin := s.begin
	s.begin = func() {
		begin()
		n = s.run.Nest(maxInsts, interval)
	}
	return func() ([]Sample, bool) {
		if n == nil || !n.Done() {
			return nil, false
		}
		out := make([]Sample, len(n.Samples()))
		for i, v := range n.Samples() {
			out[i] = s.next
			out[i].Index, out[i].Raw = i, v
		}
		return out, true
	}
}

// Close ends the run where it stands; Next then returns false. Safe to
// call more than once.
func (s *Source) Close() { s.done = true }

// Err reports a workload panic that ended the stream.
func (s *Source) Err() error { return s.err }

// LeakSamples returns LeakSamples over the samples delivered so far.
func (s *Source) LeakSamples() []int { return LeakSamples(s.stream, s.interval, s.next.Index) }

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
