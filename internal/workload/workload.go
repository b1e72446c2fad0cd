// Package workload defines the program model run on the simulated machine:
// attack generators (subpackage attacks) and SPEC-like benign kernels
// (subpackage benign) both implement Program. A Program produces a stream of
// committed-path micro-ops; the generators are phase-structured (prime →
// speculate → disclose for attacks; kernel-specific inner loops for benign
// programs) and deterministic given a seed.
package workload

import (
	"math/rand"

	"perspectron/internal/isa"
)

// Label is the ground-truth class of a program.
type Label int

const (
	// Benign marks normal applications.
	Benign Label = iota
	// Malicious marks microarchitectural attacks and their calibration
	// loops (the paper labels calibration programs suspicious too).
	Malicious
)

// String returns "benign" or "malicious".
func (l Label) String() string {
	if l == Malicious {
		return "malicious"
	}
	return "benign"
}

// Info describes a program.
type Info struct {
	Name     string
	Label    Label
	Category string // e.g. "spectre_v1", "flush_reload", "spec_benign"
	Channel  string // disclosure channel for attacks: "fr", "ff", "pp" or ""
}

// Program is a runnable workload.
type Program interface {
	Info() Info
	// Stream returns a fresh op stream; r seeds all data-dependent
	// behaviour so runs are reproducible.
	Stream(r *rand.Rand) isa.Stream
}

// IterFunc generates one iteration of a program's steady-state loop.
type IterFunc func(b *Builder)

// LoopProgram repeats an iteration generator forever (the pipeline's
// maxInsts bounds the run). Most attacks and kernels are natural loops.
type LoopProgram struct {
	info  Info
	setup IterFunc // run once before the first iteration (may be nil)
	iter  IterFunc
}

// NewLoop builds a LoopProgram.
func NewLoop(info Info, setup, iter IterFunc) *LoopProgram {
	return &LoopProgram{info: info, setup: setup, iter: iter}
}

// Info implements Program.
func (p *LoopProgram) Info() Info { return p.info }

// Iter exposes the per-iteration generator so wrappers (e.g. the bandwidth
// reducer) can compose it.
func (p *LoopProgram) Iter() IterFunc { return p.iter }

// Setup exposes the setup generator (may be nil).
func (p *LoopProgram) Setup() IterFunc { return p.setup }

// Stream implements Program. The returned stream is a *LoopStream, which
// additionally reports leak-mark positions for the detection-before-leakage
// experiments.
func (p *LoopProgram) Stream(r *rand.Rand) isa.Stream {
	b := NewBuilder(r)
	if p.setup != nil {
		p.setup(b)
	}
	return &LoopStream{b: b, iter: p.iter}
}

// LoopStream is the op stream of a LoopProgram.
type LoopStream struct {
	b    *Builder
	iter IterFunc
}

// Next implements isa.Stream. The op points into the builder's queue, which
// the next iteration refills.
func (s *LoopStream) Next() (*isa.Op, bool) {
	b := s.b
	for b.head >= len(b.queue) {
		b.queue = b.queue[:0]
		b.head = 0
		b.iteration++
		s.iter(b)
		if len(b.queue) == 0 {
			return nil, false // iteration emitted nothing: end
		}
	}
	b.head++
	b.emitted++
	return &b.queue[b.head-1], true
}

// LeakMarks returns the op indices (0-based positions in the emitted
// stream) at which the program completed a disclosure (recovered a secret).
func (s *LoopStream) LeakMarks() []uint64 { return s.b.LeakMarks }

// Emitted returns the number of ops handed out so far.
func (s *LoopStream) Emitted() uint64 { return s.b.emitted }

// Address-space layout of the synthetic processes. Regions are spread far
// apart so they never alias in the caches by accident.
const (
	CodeBase   = 0x0040_0000 // program text
	DataBase   = 0x1000_0000 // private working data
	ProbeBase  = 0x2000_0000 // attacker probe (F+R transmit) array
	VictimBase = 0x3000_0000 // in-process victim data (SpectreV1 OOB target)
	HeapBase   = 0x4000_0000 // large benign heaps
	SharedBase = 0x7000_0000 // shared library pages (ReadSharedReq traffic)
)

// ProbeStride separates probe-array entries by a page so that each secret
// value maps to a distinct line and set.
const ProbeStride = 4096

// Builder accumulates ops for one iteration. PCs auto-advance; control-flow
// helpers take a stable site label so predictor state is meaningful across
// iterations.
type Builder struct {
	R          *rand.Rand
	queue      []isa.Op
	head       int
	emitted    uint64
	pc         uint64
	iteration  int
	timedCount int

	// LeakMarks records stream positions where a disclosure completed.
	LeakMarks []uint64
}

// NewBuilder returns a Builder emitting code at CodeBase.
func NewBuilder(r *rand.Rand) *Builder {
	return &Builder{R: r, pc: CodeBase}
}

// Iteration returns the 1-based iteration number (0 during setup).
func (b *Builder) Iteration() int { return b.iteration }

// MarkLeak records that the ops emitted so far complete one disclosure: the
// attacker has recovered a secret at this point in the stream.
func (b *Builder) MarkLeak() {
	b.LeakMarks = append(b.LeakMarks, b.emitted+uint64(len(b.queue)-b.head))
}

// Pending returns the ops generated but not yet handed out. Wrappers use it
// to measure how much code an inner generator emitted.
func (b *Builder) Pending() []isa.Op { return b.queue[b.head:] }

// Emit appends a raw op, assigning the next PC if none is set.
func (b *Builder) Emit(op isa.Op) {
	if op.PC == 0 {
		b.pc += 4
		op.PC = b.pc
	}
	b.queue = append(b.queue, op)
}

// slot appends a zero op at pc (the next PC when pc is 0, as Emit assigns
// it) and returns it for the caller to fill in place. The helpers below
// use it: an op built on the stack and then copied into the queue stalls
// on store forwarding.
func (b *Builder) slot(pc uint64) *isa.Op {
	b.queue = append(b.queue, isa.Op{})
	op := &b.queue[len(b.queue)-1]
	if pc == 0 {
		b.pc += 4
		pc = b.pc
	}
	op.PC = pc
	return op
}

// SitePC returns the stable PC for a labelled code site.
func SitePC(site int) uint64 { return CodeBase + 0x1000 + uint64(site)*16 }

// Plain emits a computational op of the given class.
func (b *Builder) Plain(class isa.OpClass) {
	op := b.slot(0)
	op.Kind, op.Class = isa.KindPlain, class
}

// PlainN emits n computational ops of the given class.
func (b *Builder) PlainN(class isa.OpClass, n int) {
	for i := 0; i < n; i++ {
		b.Plain(class)
	}
}

// load emits a load of addr and returns it for the caller's extra fields.
func (b *Builder) load(addr uint64) *isa.Op {
	op := b.slot(0)
	op.Kind, op.Class, op.Addr = isa.KindLoad, isa.MemRead, addr
	return op
}

// Load emits a load of addr.
func (b *Builder) Load(addr uint64) { b.load(addr) }

// LoadShared emits a load of a shared page.
func (b *Builder) LoadShared(addr uint64) { b.load(addr).Shared = true }

// LoadDep emits a load whose address depends on the previous op.
func (b *Builder) LoadDep(addr uint64) { b.load(addr).DependsOnPrev = true }

// Store emits a store to addr.
func (b *Builder) Store(addr uint64) {
	op := b.slot(0)
	op.Kind, op.Class, op.Addr = isa.KindStore, isa.MemWrite, addr
}

// Branch emits a conditional branch at a stable site.
func (b *Builder) Branch(site int, taken bool) { b.BranchTransient(site, taken, nil) }

// BranchTransient emits a conditional branch at a stable site carrying a
// transient (wrong-path) body that executes if the branch mispredicts.
func (b *Builder) BranchTransient(site int, taken bool, body []isa.Op) {
	pc := SitePC(site)
	op := b.slot(pc)
	op.Kind, op.Taken, op.Target, op.Transient = isa.KindBranch, taken, pc+64, body
}

// control emits a call, return or indirect branch at a stable site.
func (b *Builder) control(kind isa.Kind, site int, target uint64, body []isa.Op) {
	op := b.slot(SitePC(site))
	op.Kind, op.Target, op.Transient = kind, target, body
}

// Call emits a call from a stable site to target.
func (b *Builder) Call(site int, target uint64) { b.control(isa.KindCall, site, target, nil) }

// Ret emits a return whose actual target is target; if the RAS disagrees the
// transient body executes.
func (b *Builder) Ret(site int, target uint64, body []isa.Op) {
	b.control(isa.KindRet, site, target, body)
}

// Indirect emits an indirect branch at a stable site with the given actual
// target and optional transient body.
func (b *Builder) Indirect(site int, target uint64, body []isa.Op) {
	b.control(isa.KindIndirect, site, target, body)
}

// Flush emits CLFLUSH of addr.
func (b *Builder) Flush(addr uint64) {
	op := b.slot(0)
	op.Kind, op.Addr = isa.KindFlush, addr
}

// Fence emits a memory fence (the timing bracket of cache attacks).
func (b *Builder) Fence() { b.slot(0).Kind = isa.KindFence }

// Quiesce emits a wait of n cycles (the victim-wait phase).
func (b *Builder) Quiesce(n uint64) {
	op := b.slot(0)
	op.Kind, op.WaitCycles = isa.KindQuiesce, n
}

// FaultingLoad emits a load of a kernel address carrying a transient body
// (the Meltdown primitive).
func (b *Builder) FaultingLoad(addr uint64, body []isa.Op) { b.load(addr).Transient = body }

// TimedLoad emits the rdtsc/load/rdtsc sequence attackers use to time one
// access (rdtsc reads model as integer ALU ops; a light lfence brackets
// every eighth probe, as tuned PoCs do).
func (b *Builder) TimedLoad(addr uint64, shared bool) {
	b.Plain(isa.IntAlu) // rdtsc
	b.load(addr).Shared = shared
	b.Plain(isa.IntAlu) // rdtsc
	b.timedCount++
	if b.timedCount%8 == 0 {
		b.Fence()
	}
}

// TimedFlush emits the rdtsc/clflush/rdtsc sequence Flush+Flush uses to time
// one flush (the flush itself serializes at commit).
func (b *Builder) TimedFlush(addr uint64) {
	b.Plain(isa.IntAlu)
	b.Flush(addr)
	b.Plain(isa.IntAlu)
}
