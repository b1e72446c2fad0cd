// Package sim assembles the whole simulated machine of the paper's Table II:
// an 8-wide out-of-order x86-like core at 2 GHz with a tournament branch
// predictor, 32 KB L1I / 64 KB L1D / 2 MB shared L2, a DRAM controller with
// a power model, and I/D TLBs — all instrumented with the microarchitectural
// counter registry that PerSpectron samples.
package sim

import (
	"context"

	"perspectron/internal/branch"
	"perspectron/internal/cache"
	"perspectron/internal/dram"
	"perspectron/internal/isa"
	"perspectron/internal/pipeline"
	"perspectron/internal/stats"
	"perspectron/internal/telemetry"
	"perspectron/internal/tlb"
)

// Config is empty: the machine is the paper's fixed Table II configuration,
// whose sizes are constants in the component packages. It is kept only
// because bench/ still calls NewMachine(DefaultConfig()); the next change to
// bench/ drops that argument, and Config and DefaultConfig go with it.
type Config struct{}

// DefaultConfig returns the empty Config bench/ still passes to NewMachine.
func DefaultConfig() Config { return Config{} }

// ClockGHz is the simulated core frequency (Table II).
const ClockGHz = 2.0

// Machine is one fully wired simulated core + memory system. Build a fresh
// Machine per program run: microarchitectural state (caches, predictors,
// counters) starts cold, as in the paper's per-program gem5 runs.
type Machine struct {
	Reg  *stats.Registry
	Pipe *pipeline.Pipeline
	Hier *cache.Hierarchy
	DRAM *dram.Controller
	BP   *branch.Predictor
	ITB  *tlb.TLB
	DTB  *tlb.TLB

	// OnSample is invoked inside the Step that completes each sampling
	// interval of a Run, with the 0-based sample index; mitigation policies
	// hook here. It never sees the trailing partial interval delivered after
	// the drain.
	OnSample sampleHook
}

// NewMachine wires a Table II machine and seals its counter registry. The
// optional Config is ignored; see Config.
func NewMachine(...Config) *Machine {
	reg := stats.NewRegistry()
	d := dram.New(reg)
	h := cache.NewHierarchy(reg, d)
	bp := branch.New(reg)
	itb := tlb.New(reg, stats.CompITB, "itb")
	dtb := tlb.New(reg, stats.CompDTB, "dtb")
	p := pipeline.New(reg)
	p.Mem = h
	p.BP = bp
	p.ITB = itb
	p.DTB = dtb
	reg.Seal()
	return &Machine{Reg: reg, Pipe: p, Hier: h, DRAM: d, BP: bp, ITB: itb, DTB: dtb}
}

// NumCounters returns the size of the machine's counter space (the paper's
// machine exposes 1159 counters; this model's inventory is asserted in the
// sim tests and documented in DESIGN.md).
func (m *Machine) NumCounters() int { return m.Reg.Len() }

// sampleHook is invoked after each sampling interval fires, with the
// 0-based sample index and that interval's counter delta vector — the hook
// OS-level mitigation policies use to score the interval and react (rekey
// caches, toggle fencing) before the next one.
type sampleHook = func(index int, delta []float64)

// RunStream runs stream as Start does, without a context, and hands each
// counter-delta vector, in order, to fn, which owns it. fn returning false cuts the run off at the
// next instruction fetch; the samples the drain completes are counted but
// not delivered. It returns the number of samples the run emitted.
func (m *Machine) RunStream(stream isa.Stream, maxInsts, sampleInterval uint64, fn func(index int, delta []float64) bool) int {
	r := m.Start(context.Background(), stream, maxInsts, sampleInterval)
	n := 0
	for v, ok := r.Next(); ok; v, ok = r.Next() {
		if !r.stopped && !fn(n, v) {
			r.stopped = true
		}
		n++
	}
	return n
}

// ctxPollMask sets how often a Run checks its context: every 1024
// instruction fetches, which keeps the check off the per-op cost.
const ctxPollMask = 1023

// Run is one program run on a machine, stepped on the goroutine that calls
// Next, so a sample reaches its consumer in the call that completed it.
type Run struct {
	m        *Machine
	ctx      context.Context
	stream   isa.Stream
	maxInsts uint64 // fetch budget; ^0 for none
	limit    uint64 // maxInsts, or the budget of the next nested run below it
	sampler  *stats.Sampler
	nested   []*Nested // still open, by budget
	saved    []float64 // counter values kept across a drain probe
	fetched  uint64
	stopped  bool        // RunStream's consumer declined: fetch no more
	done     bool        // the stream is over: drained, tail flushed
	queue    [][]float64 // emitted, not yet returned by Next
	emitted  int
}

// Start prepares a run of stream on m for up to maxInsts committed-path
// instructions (0: until the stream ends), sampling every sampleInterval
// committed instructions; nothing executes until Next. Once ctx is done
// (polled before the first fetch and every 1024 after) the run stops
// fetching, as if the stream had ended there.
func (m *Machine) Start(ctx context.Context, stream isa.Stream, maxInsts, sampleInterval uint64) *Run {
	r := &Run{m: m, ctx: ctx, stream: stream, maxInsts: budget(maxInsts)}
	r.limit = r.maxInsts
	r.sampler = stats.NewSampler(m.Reg, sampleInterval, r.emit)
	m.Pipe.Sampler = r.sampler
	return r
}

// budget maps a 0 ("until the stream ends") fetch budget to no bound.
func budget(maxInsts uint64) uint64 {
	if maxInsts == 0 {
		return ^uint64(0)
	}
	return maxInsts
}

// Nested is a shorter run carried inside a Run: the run of the same stream
// on the same machine that would stop fetching at a smaller budget, sampled
// at its own interval. The two share every op up to the nested budget, so
// the outer run simulates both at once; at the budget a drain probe
// delivers the nested run's end, as Next would have for the shorter run,
// and then rewinds the machine.
type Nested struct {
	maxInsts uint64
	sampler  *stats.Sampler
	samples  [][]float64
	done     bool
}

// Nest adds a nested run of up to maxInsts fetches (0: until the stream
// ends), sampled every sampleInterval committed instructions. It must be
// called before the first Next, and maxInsts may not exceed the run's.
// The nested run's samples are those a separate Start of the same stream
// and context with these arguments would deliver.
func (r *Run) Nest(maxInsts, sampleInterval uint64) *Nested {
	if r.fetched > 0 || r.done {
		panic("sim: Nest after the run started")
	}
	n := &Nested{maxInsts: budget(maxInsts)}
	if n.maxInsts > r.maxInsts {
		panic("sim: nested run longer than its outer run")
	}
	n.sampler = stats.NewSampler(r.m.Reg, sampleInterval, func(v []float64) { n.samples = append(n.samples, v) })
	r.sampler.Attach(n.sampler)
	i := len(r.nested)
	for i > 0 && r.nested[i-1].maxInsts > n.maxInsts {
		i--
	}
	r.nested = append(r.nested[:i], append([]*Nested{n}, r.nested[i:]...)...)
	r.limit = min(r.limit, n.maxInsts)
	return n
}

// Samples returns the samples the nested run has delivered, in order.
func (n *Nested) Samples() [][]float64 { return n.samples }

// Done reports whether the nested run has ended, so Samples is complete.
func (n *Nested) Done() bool { return n.done }

// emit queues a sample inside the Step whose commit closed its interval,
// where OnSample sees it, before the next op executes.
func (r *Run) emit(v []float64) {
	if r.m.OnSample != nil && !r.done {
		r.m.OnSample(r.emitted, v)
	}
	r.queue = append(r.queue, v)
	r.emitted++
}

// Next steps the machine until its sampler has queued a vector and returns
// it: each completed interval's delta and, once the stream ends and the
// pipeline drains, the trailing partial interval if it is at least half a
// sample long. It returns false after the last one.
func (r *Run) Next() ([]float64, bool) {
	for len(r.queue) == 0 {
		if r.done {
			return nil, false
		}
		r.step()
	}
	v := r.queue[0]
	r.queue = r.queue[:copy(r.queue, r.queue[1:])] // in place: no allocation per sample
	return v, true
}

// step fetches and executes one op; at a nested run's budget, runs its
// drain probe; once the stream is over, drains the pipeline and flushes the
// trailing partial interval of the run and of every nested run still open.
func (r *Run) step() {
	if !r.stopped && r.fetched < r.limit &&
		(r.fetched&ctxPollMask != 0 || r.ctx.Err() == nil) {
		if op, ok := r.stream.Next(); ok {
			r.fetched++
			r.m.Pipe.Step(op)
			return
		}
	} else if r.fetched == r.limit && r.limit < r.maxInsts && !r.stopped {
		r.probe()
		return
	}
	m := r.m
	m.Pipe.Drain()
	m.DRAM.FinishAt(m.Pipe.Cycle())
	r.done = true // OnSample skips the tail
	r.sampler.Flush(r.sampler.Interval() / 2)
	for _, n := range r.nested {
		r.sampler.Detach(n.sampler)
		n.finish()
	}
	r.nested = nil
	reg := telemetry.Get()
	reg.Counter("perspectron_sim_runs_total").Inc()
	reg.Counter("perspectron_sim_samples_total").Add(uint64(r.emitted))
}

// probe ends each nested run whose budget the run has reached: it detaches
// the run's sampler, drains the pipeline and closes DRAM accounting into
// the nested sampler alone, flushes that sampler's tail, and rewinds the
// machine to where the drain began, so the run carries on as if nothing
// had happened.
func (r *Run) probe() {
	m := r.m
	pipe, mem := m.Pipe.Mark(), m.DRAM.Mark()
	r.saved = m.Reg.Values(r.saved)
	for len(r.nested) > 0 && r.nested[0].maxInsts == r.fetched {
		n := r.nested[0]
		r.nested = r.nested[1:]
		r.sampler.Detach(n.sampler)
		m.Pipe.Sampler = n.sampler
		m.Pipe.Drain()
		m.DRAM.FinishAt(m.Pipe.Cycle())
		n.finish()
		m.Pipe.Rewind(pipe)
		m.DRAM.Rewind(mem)
		m.Reg.SetValues(r.saved)
	}
	m.Pipe.Sampler = r.sampler
	r.limit = r.maxInsts
	if len(r.nested) > 0 {
		r.limit = min(r.limit, r.nested[0].maxInsts)
	}
}

// finish flushes the nested run's trailing partial interval and ends it.
func (n *Nested) finish() {
	n.sampler.Flush(n.sampler.Interval() / 2)
	n.done = true
	telemetry.Get().Counter("perspectron_sim_samples_total").Add(uint64(len(n.samples)))
}

// EnableFencing toggles the context-sensitive-fencing mitigation (§IV-G1):
// injected fences block speculative loads at a per-branch serialization
// cost.
func (m *Machine) EnableFencing(on bool) { m.Pipe.SetFencing(on) }

// RekeyCaches rotates the CEASER-style index-randomization key of the data
// caches (§IV-G1), destroying any eviction sets the attacker has built.
func (m *Machine) RekeyCaches(key uint64) {
	cycle := m.Pipe.Cycle()
	m.Hier.L1D.Rekey(key, cycle)
	m.Hier.L2.Rekey(key*0x9e3779b97f4a7c15+1, cycle)
}

// InjectBPNoise randomizes branch predictions at ratePermille/1000 (§IV-G1),
// making predictor mistraining unreliable.
func (m *Machine) InjectBPNoise(ratePermille int) { m.BP.SetNoise(ratePermille) }
