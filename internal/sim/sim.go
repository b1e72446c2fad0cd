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

// Config gathers every sub-component configuration.
type Config struct {
	Pipeline pipeline.Config
	Branch   branch.Config
	TLB      tlb.Config
	DRAM     dram.Config
}

// DefaultConfig is the paper's Table II machine.
func DefaultConfig() Config {
	return Config{
		Pipeline: pipeline.DefaultConfig(),
		Branch:   branch.DefaultConfig(),
		TLB:      tlb.DefaultConfig(),
		DRAM:     dram.DefaultConfig(),
	}
}

// ClockGHz is the simulated core frequency (Table II).
const ClockGHz = 2.0

// Machine is one fully wired simulated core + memory system. Build a fresh
// Machine per program run: microarchitectural state (caches, predictors,
// counters) starts cold, as in the paper's per-program gem5 runs.
type Machine struct {
	Cfg  Config
	Reg  *stats.Registry
	Pipe *pipeline.Pipeline
	Hier *cache.Hierarchy
	DRAM *dram.Controller
	BP   *branch.Predictor
	ITB  *tlb.TLB
	DTB  *tlb.TLB

	// OnSample is invoked after each completed sampling interval during Run
	// with the 0-based sample index; mitigation policies hook here. It never
	// sees the trailing partial interval delivered after the drain.
	OnSample sampleHook
}

// NewMachine wires a machine and seals its counter registry.
func NewMachine(cfg Config) *Machine {
	reg := stats.NewRegistry()
	d := dram.New(cfg.DRAM, reg)
	h := cache.NewHierarchy(reg, d)
	bp := branch.New(cfg.Branch, reg)
	itb := tlb.New(cfg.TLB, reg, stats.CompITB, "itb")
	dtb := tlb.New(cfg.TLB, reg, stats.CompDTB, "dtb")
	p := pipeline.New(cfg.Pipeline, reg)
	p.Mem = h
	p.BP = bp
	p.ITB = itb
	p.DTB = dtb
	reg.Seal()
	return &Machine{Cfg: cfg, Reg: reg, Pipe: p, Hier: h, DRAM: d, BP: bp, ITB: itb, DTB: dtb}
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

// Run executes the stream for up to maxInsts committed-path instructions,
// sampling all counters every sampleInterval committed instructions. It
// returns the per-interval counter delta vectors. Run is the batch view of
// RunStream: it drains the sample stream into a slice.
func (m *Machine) Run(stream isa.Stream, maxInsts, sampleInterval uint64) [][]float64 {
	var out [][]float64
	m.RunStream(stream, maxInsts, sampleInterval, func(_ int, v []float64) bool {
		out = append(out, v)
		return true
	})
	return out
}

// RunStream executes like Run but delivers each sampled counter-delta
// vector to fn as soon as its interval completes, instead of accumulating
// them — the per-sample code path shared by batch trace collection and
// online monitoring. Each vector is fresh and belongs to fn. fn returning
// false cuts the run off at the next instruction fetch. The trailing
// partial interval (at least half a sample long, as in Run) is delivered
// after the pipeline drains. OnSample observes every completed interval's
// vector before fn does. It returns the number of samples delivered.
func (m *Machine) RunStream(stream isa.Stream, maxInsts, sampleInterval uint64, fn func(index int, delta []float64) bool) int {
	return m.RunStreamCtx(context.Background(), stream, maxInsts, sampleInterval, fn)
}

// ctxPollMask sets how often RunStreamCtx checks its context: every 1024
// instruction fetches, which keeps the check off the per-op cost.
const ctxPollMask = 1023

// RunStreamCtx is RunStream bounded by ctx: once ctx is done the run stops
// fetching (the context is polled every 1024 fetches), drains what is in
// flight and delivers the samples the drain completes, as if the stream had
// ended there.
func (m *Machine) RunStreamCtx(ctx context.Context, stream isa.Stream, maxInsts, sampleInterval uint64, fn func(index int, delta []float64) bool) int {
	idx := 0
	cut := false      // fn stopped listening
	trailing := false // emitting the partial tail, which OnSample skips
	sampler := stats.NewSampler(m.Reg, sampleInterval, func(v []float64) {
		if m.OnSample != nil && !trailing {
			m.OnSample(idx, v)
		}
		if !cut && !fn(idx, v) {
			cut = true
		}
		idx++
	})
	m.Pipe.OnCommit = func(n uint64) { sampler.Tick(n) }
	var fetches uint32
	m.Pipe.Run(stream, maxInsts, func() bool {
		fetches++
		return cut || (fetches&ctxPollMask == 0 && ctx.Err() != nil)
	})
	m.DRAM.FinishAt(m.Pipe.Cycle())
	trailing = true
	sampler.Flush(sampleInterval / 2)
	reg := telemetry.Get()
	reg.Counter("perspectron_sim_runs_total").Inc()
	reg.Counter("perspectron_sim_samples_total").Add(uint64(idx))
	return idx
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
