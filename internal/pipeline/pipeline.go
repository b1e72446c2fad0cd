// Package pipeline implements a cycle-accounting out-of-order core model in
// the style of gem5's O3CPU, configured per the paper's Table II: 8-wide
// fetch/dispatch/issue/commit, 192-entry ROB, 32-entry load and store
// queues, 256 physical integer registers (the float register file is not
// modelled), a tournament branch predictor, and TLBs whose permission
// faults are deferred to commit.
//
// The model is instruction-stepped rather than strictly cycle-stepped: each
// committed-path op flows through fetch → decode → rename → issue/execute →
// commit bookkeeping in one step, while a reorder-window model with
// completion timestamps produces realistic occupancy, stall, and squash
// *cycle* accounting. Mispredicted control flow and faulting loads execute
// their transient bodies against the real cache hierarchy before being
// squashed — which is exactly the footprint PerSpectron detects.
package pipeline

import (
	"math/bits"

	"perspectron/internal/branch"
	"perspectron/internal/cache"
	"perspectron/internal/isa"
	"perspectron/internal/stats"
	"perspectron/internal/tlb"
)

// Table II core parameters.
const (
	Width          = 8 // fetch/dispatch/issue/commit
	ROBEntries     = 192
	LQEntries      = 32
	SQEntries      = 32
	NumPhysIntRegs = 256
)

// Model latencies, in cycles.
const (
	squashPenalty uint64 = 8  // refetch after a squash, charged to every stage
	trapLatency   uint64 = 40 // a fault taken at commit
	l1iHitLatency uint64 = 2  // an instruction fetch that hits the L1I
)

// inflight is one window (ROB) entry.
type inflight struct {
	done    uint64
	class   isa.OpClass
	isLoad  bool
	isStore bool
	nonSpec bool
	misp    bool // mispredicted control
}

// fuPools maps op classes onto functional unit pools.
var fuPoolOf = func() [isa.NumOpClasses]int {
	var m [isa.NumOpClasses]int
	for c := isa.OpClass(0); c < isa.NumOpClasses; c++ {
		switch c {
		case isa.IntMult, isa.IntDiv:
			m[c] = 1
		case isa.FloatAdd, isa.FloatCmp, isa.FloatCvt, isa.FloatMult,
			isa.FloatDiv, isa.FloatSqrt:
			m[c] = 2
		case isa.SimdAdd, isa.SimdAlu, isa.SimdCmp, isa.SimdCvt,
			isa.SimdMisc, isa.SimdMult, isa.SimdShift, isa.SimdFloatAdd,
			isa.SimdFloatMult:
			m[c] = 3
		case isa.MemRead, isa.FloatMemRead, isa.InstPrefetch:
			m[c] = 4
		case isa.MemWrite, isa.FloatMemWrite:
			m[c] = 5
		default:
			m[c] = 0
		}
	}
	return m
}()

var fuPoolSizes = [6]int{6, 2, 4, 4, 4, 4}

// execLatency is the fixed execute latency per class; memory classes take
// the cache latency instead.
var execLatency = func() [isa.NumOpClasses]uint64 {
	var l [isa.NumOpClasses]uint64
	for c := isa.OpClass(0); c < isa.NumOpClasses; c++ {
		l[c] = 1
	}
	l[isa.IntMult] = 3
	l[isa.IntDiv] = 12
	l[isa.FloatAdd] = 2
	l[isa.FloatCmp] = 2
	l[isa.FloatCvt] = 2
	l[isa.FloatMult] = 4
	l[isa.FloatDiv] = 12
	l[isa.FloatSqrt] = 20
	for c := isa.SimdAdd; c <= isa.SimdFloatMult; c++ {
		l[c] = 3
	}
	return l
}()

type memRef struct {
	line uint64
	done uint64
}

// Pipeline is the core model.
type Pipeline struct {
	C Counters

	Mem *cache.Hierarchy
	BP  *branch.Predictor
	ITB *tlb.TLB
	DTB *tlb.TLB

	// Sampler, when set, is ticked once per committed instruction: the
	// machine's run loop and the scheduler sample counters through it.
	Sampler *stats.Sampler

	// fencing enables the §IV-G1 context-sensitive-fencing mitigation:
	// injected fences at control-flow targets block speculative loads
	// (transient bodies execute no memory accesses) at a per-branch
	// serialization cost.
	fencing bool

	cycle uint64
	sub   int // ops dispatched in the current cycle
	n     lockstep

	// window is the ROB, a power-of-two ring: the live entries are
	// head..tail-1, each at index & windowMask.
	window     []inflight
	windowMask uint64
	head, tail uint64
	pending    completionCalendar // done cycles of window entries still executing
	lq, sq     int

	fu [6][]uint64 // next-free cycle per FU

	prevDone      uint64
	lastFetchLine uint64
	lastFetchPage uint64

	recentStores  []memRef
	recentLoads   []memRef
	pendingStores []memRef // address-delayed stores (SpectreV4 window)

	wrongPath []isa.Op // scratch for genericWrongPath

	opsSinceHist int
	lastHistCyc  uint64
	lastHistInst uint64
}

// New constructs a pipeline and registers its counters in reg. Wire Mem,
// BP, ITB, DTB before Run.
func New(reg *stats.Registry) *Pipeline {
	p := &Pipeline{
		lastFetchLine: ^uint64(0),
		lastFetchPage: ^uint64(0),
		recentStores:  make([]memRef, 0, memHistory),
		recentLoads:   make([]memRef, 0, memHistory),
		pendingStores: make([]memRef, 0, memHistory),
		wrongPath:     make([]isa.Op, 0, 7),
	}
	// rename retires the head before dispatch whenever the ROB is full,
	// so occupancy never exceeds ROBEntries.
	ring := 1
	for ring < ROBEntries {
		ring <<= 1
	}
	p.window = make([]inflight, ring)
	p.windowMask = uint64(ring - 1)
	for i := range p.fu {
		p.fu[i] = make([]uint64, fuPoolSizes[i])
	}
	p.C = newCounters(reg, Width, &p.n)
	return p
}

// SetFencing toggles the context-sensitive-fencing mitigation.
func (p *Pipeline) SetFencing(on bool) { p.fencing = on }

// Cycle returns the current cycle.
func (p *Pipeline) Cycle() uint64 { return p.cycle }

// Committed returns committed instructions so far.
func (p *Pipeline) Committed() uint64 { return p.n.commits }

// Run executes the stream until it ends or maxInsts committed-path
// instructions have been fetched, then drains, and returns the number of
// instructions committed.
func (p *Pipeline) Run(stream isa.Stream, maxInsts uint64) uint64 {
	start := p.n.commits
	for fetched := uint64(0); maxInsts == 0 || fetched < maxInsts; fetched++ {
		op, ok := stream.Next()
		if !ok {
			break
		}
		p.Step(op)
	}
	p.Drain()
	return p.n.commits - start
}

// Step processes one committed-path op through the whole pipeline model.
func (p *Pipeline) Step(op *isa.Op) {
	if op.Class == isa.NoOpClass && op.Kind != isa.KindNop && op.Kind != isa.KindQuiesce &&
		op.Kind != isa.KindFlush && op.Kind != isa.KindFence && op.Kind != isa.KindSerialize {
		op.Class = isa.DefaultClass(op.Kind)
	}

	p.fetch(op)
	p.decode(op)

	misp := p.predict(op)

	p.rename(op)
	done, faulted := p.execute(op)

	if misp || faulted {
		p.transientAndSquash(op, faulted)
		if faulted {
			// Trap at commit: drain and pay the trap latency.
			p.Drain()
			p.C.Fetch.PendingTrapStallCycles.Add(float64(trapLatency))
			p.C.Commit.Traps.Inc()
			p.cycle += trapLatency
			done = p.cycle
		}
	}

	p.dispatchToWindow(op, done, misp)
	p.retireReady()
	p.advance()
	p.histograms()
}

// fetch models instruction delivery.
func (p *Pipeline) fetch(op *isa.Op) {
	fc := &p.C.Fetch

	if op.Kind == isa.KindQuiesce {
		w := op.WaitCycles
		if w == 0 {
			w = 16
		}
		fc.PendingQuiesceStallCycles.Add(float64(w))
		fc.IdleCycles.Add(float64(w))
		p.C.Decode.IdleCycles.Add(float64(w))
		p.C.Rename.IdleCycles.Add(float64(w))
		p.cycle += w
	}

	line := op.PC >> 6
	if line != p.lastFetchLine {
		sequential := line == p.lastFetchLine+1
		p.lastFetchLine = line
		fc.CacheLines.Inc()
		lat := p.Mem.FetchInst(op.PC, p.cycle)
		if lat > l1iHitLatency {
			extra := lat - l1iHitLatency
			if sequential {
				// The next-line prefetcher has this fill in flight;
				// sequential streams hide most of the miss.
				extra /= 8
			}
			fc.IcacheStallCycles.Add(float64(extra))
			p.cycle += extra
		}
		// Next-line prefetch: fill line+1 in the background.
		p.Mem.FetchInst((line+1)<<6, p.cycle)
	}
	page := op.PC >> 12
	if page != p.lastFetchPage {
		p.lastFetchPage = page
		res := p.ITB.Translate(op.PC, false)
		if res.Latency > 1 {
			fc.ItlbStallCycles.Add(float64(res.Latency - 1))
			p.cycle += res.Latency - 1
		}
	}

	p.n.stepped++
	if op.IsControl() {
		fc.Branches.Inc()
	}
	fc.DynamicEnergy.Add(0.8)
}

// decode models the decode stage bookkeeping.
func (p *Pipeline) decode(op *isa.Op) {
	dc := &p.C.Decode
	ops := 1.0
	if op.IsMem() {
		ops = 2 // address generation + access micro-ops
	}
	dc.DecodedOps.Add(ops)
	dc.DynamicEnergy.Add(0.5)
}

// predict runs the branch prediction unit; it returns true when the op is a
// mispredicted control instruction.
func (p *Pipeline) predict(op *isa.Op) bool {
	fc := &p.C.Fetch
	switch op.Kind {
	case isa.KindBranch:
		fc.PredictedBranches.Inc()
		correct := p.BP.PredictCond(op.PC, op.Taken)
		if op.Taken {
			p.BP.LookupBTB(op.PC, op.Target)
		}
		if !correct {
			if op.Taken {
				p.C.IEW.PredictedNotTakenIncorrect.Inc()
			} else {
				p.C.IEW.PredictedTakenIncorrect.Inc()
			}
		}
		return !correct
	case isa.KindCall:
		p.BP.Call(op.PC + 4)
		p.BP.LookupBTB(op.PC, op.Target)
		return false
	case isa.KindRet:
		fc.PredictedBranches.Inc()
		return !p.BP.Return(op.Target)
	case isa.KindIndirect:
		fc.PredictedBranches.Inc()
		p.BP.LookupBTB(op.PC, op.Target)
		return !p.BP.PredictIndirect(op.PC, op.Target)
	}
	return false
}

// rename models rename/dispatch back-pressure: window, LSQ, and physical
// register availability, plus serialization.
func (p *Pipeline) rename(op *isa.Op) {
	rc := &p.C.Rename
	if op.Class >= isa.FloatAdd && op.Class <= isa.SimdFloatMult {
		rc.FpLookups.Inc()
	} else {
		rc.IntLookups.Inc()
	}
	rc.DynamicEnergy.Add(0.6)

	// Structural back-pressure: free a window slot, LQ/SQ slot, and a
	// physical register by retiring the head when needed. The stall cycles
	// propagate backwards to every earlier stage, the coupling the paper's
	// replicated-feature argument builds on.
	if p.windowLen() >= ROBEntries {
		rc.ROBFullEvents.Inc()
		p.C.ROB.FullEvents.Inc()
		p.retireForSpace()
	}
	if op.Kind == isa.KindLoad && p.lq >= LQEntries {
		rc.LQFullEvents.Inc()
		p.retireForSpace()
	}
	if op.Kind == isa.KindStore && p.sq >= SQEntries {
		rc.SQFullEvents.Inc()
		p.retireForSpace()
	}
	if p.windowLen() >= NumPhysIntRegs-Width*4 {
		rc.FullRegisterEvents.Inc()
		p.retireForSpace()
	}
	if p.windowLen() >= 64 { // IQ capacity model
		if p.inIQ() >= 64 {
			rc.IQFullEvents.Inc()
			p.C.IQ.FullEvents.Inc()
			p.retireForSpace()
		}
	}

	if op.IsSerializing() {
		rc.SerializingInsts.Inc()
		if op.Kind == isa.KindFlush {
			rc.TempSerializingInsts.Inc()
		}
		before := p.cycle
		p.Drain()
		stall := p.cycle - before
		rc.SerializeStallCycles.Add(float64(stall))
		p.C.Commit.NonSpecStalls.Add(float64(stall) + 2)
		p.C.IQ.NonSpecInstsAdded.Inc()
		p.C.IEW.DispNonSpecInsts.Inc()
	}
}

// execute computes the op's completion time, running real cache and TLB
// accesses for memory ops. It returns the completion cycle and whether the
// op faults at commit (Meltdown-style deferred fault).
func (p *Pipeline) execute(op *isa.Op) (done uint64, faulted bool) {
	iq := &p.C.IQ
	iw := &p.C.IEW

	ready := p.cycle
	if op.DependsOnPrev && p.prevDone > ready {
		ready = p.prevDone
	}

	// Functional unit acquisition.
	pool := fuPoolOf[op.Class]
	slot, at := p.acquireFU(pool, ready)
	if at > ready {
		iq.FuFull[op.Class].Inc()
		iq.FuBusyCycles[op.Class].Add(float64(at - ready))
		ready = at
	}
	p.fu[pool][slot] = ready + 1

	p.n.executed++
	iq.IssuedClass[op.Class].Inc()
	iq.DynamicEnergy.Add(0.4)
	iw.DynamicEnergy.Add(0.7)

	switch op.Kind {
	case isa.KindLoad:
		iw.ExecLoadInsts.Inc()
		iw.DispLoadInsts.Inc()
		p.C.MemDep.InsertedLoads.Inc()
		p.lq++

		res := p.DTB.Translate(op.Addr, false)
		lat := res.Latency
		if res.PermFault || res.PageFault {
			faulted = true
		}

		line := op.Addr >> 6
		if bypass, ok := p.bypassesPendingStore(line, ready); ok {
			// SpectreV4: the load speculatively bypassed an older store
			// with an unresolved address and read stale data. The
			// transient body runs on the stale value, then the load is
			// replayed after the store resolves.
			p.C.IEW.MemOrderViolationEvents.Inc()
			p.C.LSQ.MemOrderViolation.Inc()
			p.C.LSQ.RescheduledLoads.Inc()
			p.C.MemDep.DepsIncorrect.Inc()
			if len(op.Transient) > 0 {
				p.runTransient(op.Transient)
				p.squash(len(op.Transient))
			} else {
				p.cycle += 6 // plain replay penalty
				p.C.IEW.BlockCycles.Add(6)
			}
			done = max64(bypass, p.cycle) + 1
			p.recordLoad(line, done)
			p.prevDone = done
			return done, faulted
		}
		if fwd, ok := p.forwardFromStore(line); ok {
			p.C.LSQ.ForwLoads.Inc()
			done = max64(ready+1, fwd)
		} else if op.FBRead {
			// MDS fill-buffer sample: no architectural cache access.
			p.Mem.L1D.ReadLFB(ready)
			done = ready + 4
		} else {
			memLat := p.Mem.ReadData(op.Addr, op.Shared, ready+lat)
			done = ready + lat + memLat
			if memLat > 20 {
				p.C.LSQ.BlockedLoads.Inc()
			}
		}
		p.recordLoad(line, done)

	case isa.KindStore:
		iw.ExecStoreInsts.Inc()
		iw.DispStoreInsts.Inc()
		p.C.MemDep.InsertedStores.Inc()
		p.sq++

		res := p.DTB.Translate(op.Addr, true)
		if res.PermFault || res.PageFault {
			faulted = true
		}
		line := op.Addr >> 6
		p.checkViolation(line)
		p.Mem.WriteData(op.Addr, ready+res.Latency)
		done = ready + res.Latency + 1
		if op.AddrDelayed {
			// The store's address resolves late: it is invisible to
			// store-to-load forwarding until done, opening the
			// speculative-store-bypass window for younger loads.
			done += 24 // address-generation dependence latency
			p.recordPendingStore(line, done)
		} else {
			p.recordStore(line, done)
		}

	case isa.KindFlush:
		_, lat := p.Mem.Flush(op.Addr, ready)
		done = ready + lat
		p.C.Commit.Membars.Inc()

	case isa.KindFence, isa.KindSerialize:
		done = ready + 2
		p.C.Commit.Membars.Inc()

	case isa.KindBranch, isa.KindCall, isa.KindRet, isa.KindIndirect:
		iw.ExecBranches.Inc()
		done = ready + execLatency[op.Class]
		if p.fencing {
			// Injected fence at the control-flow target serializes the
			// following loads.
			iw.FenceStallCycles.Add(2)
			p.cycle += 2
			done += 2
		}

	default:
		done = ready + execLatency[op.Class]
	}

	p.prevDone = done
	return done, faulted
}

// acquireFU returns the index and availability time of the earliest-free FU
// in pool.
func (p *Pipeline) acquireFU(pool int, ready uint64) (slot int, at uint64) {
	fus := p.fu[pool]
	at = fus[0]
	for i, t := range fus[1:] {
		if t < at {
			slot, at = i+1, t
		}
	}
	if at < ready {
		at = ready
	}
	return slot, at
}

// forwardFromStore reports whether line can be forwarded from an in-flight
// store, returning the forward-ready cycle.
func (p *Pipeline) forwardFromStore(line uint64) (uint64, bool) {
	for i := len(p.recentStores) - 1; i >= 0; i-- {
		if p.recentStores[i].line == line {
			return p.recentStores[i].done, true
		}
	}
	return 0, false
}

// checkViolation detects a store arriving after a same-line load already
// completed out of order: a memory-order violation with a replay.
func (p *Pipeline) checkViolation(line uint64) {
	for i := len(p.recentLoads) - 1; i >= 0; i-- {
		l := p.recentLoads[i]
		if l.line == line && l.done > p.cycle {
			p.C.IEW.MemOrderViolationEvents.Inc()
			p.C.LSQ.MemOrderViolation.Inc()
			p.C.LSQ.RescheduledLoads.Inc()
			p.C.MemDep.ConflictingStores.Inc()
			p.C.MemDep.ConflictingLoads.Inc()
			p.C.MemDep.DepsIncorrect.Inc()
			p.cycle += 6 // replay penalty
			p.C.IEW.BlockCycles.Add(6)
			// Remove the violated record so one aliasing pair counts once.
			p.recentLoads = append(p.recentLoads[:i], p.recentLoads[i+1:]...)
			return
		}
	}
	p.C.MemDep.DepsPredicted.Inc()
}

// memHistory bounds each load/store history the LSQ model searches.
const memHistory = 32

// pushRef appends r to a history, dropping the oldest entry once memHistory
// are kept. It shifts in place, so a history never reallocates.
func pushRef(refs []memRef, r memRef) []memRef {
	if len(refs) == memHistory {
		refs = refs[:copy(refs, refs[1:])]
	}
	return append(refs, r)
}

func (p *Pipeline) recordLoad(line, done uint64) {
	p.recentLoads = pushRef(p.recentLoads, memRef{line, done})
}

func (p *Pipeline) recordStore(line, done uint64) {
	p.recentStores = pushRef(p.recentStores, memRef{line, done})
}

func (p *Pipeline) recordPendingStore(line, resolveAt uint64) {
	p.pendingStores = pushRef(p.pendingStores, memRef{line, resolveAt})
}

// bypassesPendingStore reports whether a load to line at cycle ready slips
// under an older address-delayed store; it returns the store's resolve time.
func (p *Pipeline) bypassesPendingStore(line, ready uint64) (uint64, bool) {
	for i := len(p.pendingStores) - 1; i >= 0; i-- {
		s := p.pendingStores[i]
		if s.line == line && s.done > ready {
			p.pendingStores = append(p.pendingStores[:i], p.pendingStores[i+1:]...)
			return s.done, true
		}
	}
	return 0, false
}

// transientAndSquash executes the op's transient body against the real
// memory system and then accounts the squash.
func (p *Pipeline) transientAndSquash(op *isa.Op, faulted bool) {
	body := op.Transient
	if len(body) == 0 && !faulted {
		// Generic wrong-path work for mispredicts without an explicit
		// gadget: the frontend fetches and partially executes a handful
		// of wrong-path instructions.
		body = p.genericWrongPath(op)
	}
	p.runTransient(body)
	p.squash(len(body))
	if op.IsControl() {
		p.C.IEW.BranchMispredicts.Inc()
	}
}

// genericWrongPath synthesizes the wrong-path instructions a benign
// mispredict drags through the pipeline, in a scratch buffer reused across
// mispredicts.
func (p *Pipeline) genericWrongPath(op *isa.Op) []isa.Op {
	wp := p.wrongPath[:0]
	for i := 0; i < 6; i++ {
		wp = append(wp, isa.Op{Kind: isa.KindPlain, Class: isa.IntAlu, PC: op.PC + 8 + uint64(i)*4})
	}
	if op.Addr != 0 {
		wp = append(wp, isa.Op{Kind: isa.KindLoad, Class: isa.MemRead,
			PC: op.PC + 32, Addr: op.Addr + 64})
	}
	p.wrongPath = wp
	return wp
}

// runTransient executes a squashed-path body: its memory accesses are real
// (they perturb the caches — the side channel), but nothing commits.
func (p *Pipeline) runTransient(body []isa.Op) {
	iq := &p.C.IQ
	iw := &p.C.IEW
	tDone := p.cycle
	for bi := range body {
		t := &body[bi]
		if t.Class == isa.NoOpClass {
			t.Class = isa.DefaultClass(t.Kind)
		}
		iq.SquashedInstsExamined.Inc()
		iq.SquashedOperandsExamined.Add(2)
		iw.DispSquashedInsts.Inc()
		p.C.ROB.Writes.Inc()

		// Roughly half the wrong-path body typically issues before the
		// squash arrives; model that all of it does (the gadget bodies
		// are short and latency-critical by construction).
		iq.SquashedInstsIssued.Inc()
		iw.ExecSquashedInsts.Inc()

		ready := tDone
		if !t.DependsOnPrev {
			ready = p.cycle
		}
		switch t.Kind {
		case isa.KindLoad:
			p.C.LSQ.SquashedLoads.Inc()
			if p.fencing {
				// The injected fence blocks the speculative load: no
				// translation, no cache fill — the side channel never
				// forms.
				p.C.IEW.BlockedSpecLoads.Inc()
				tDone = ready + 1
				break
			}
			res := p.DTB.Translate(t.Addr, false)
			if t.FBRead {
				p.Mem.L1D.ReadLFB(ready)
				tDone = ready + 4
			} else {
				lat := p.Mem.ReadData(t.Addr, t.Shared, ready+res.Latency)
				tDone = ready + res.Latency + lat
				if lat > 20 {
					p.C.LSQ.IgnoredResponses.Inc()
				}
			}
		case isa.KindStore:
			p.C.LSQ.SquashedStores.Inc()
			p.DTB.Translate(t.Addr, true)
			tDone = ready + 2
		case isa.KindBranch, isa.KindCall, isa.KindRet, isa.KindIndirect:
			tDone = ready + 1
		default:
			tDone = ready + execLatency[t.Class]
		}
		iq.DynamicEnergy.Add(0.4)
		iw.DynamicEnergy.Add(0.7)
	}
	if len(body) > 0 {
		p.C.Fetch.IcacheSquashes.Inc()
	}
}

// squash accounts a pipeline squash of n instructions.
func (p *Pipeline) squash(n int) {
	pen := squashPenalty
	p.cycle += pen
	fpen := float64(pen)
	p.C.Fetch.SquashCycles.Add(fpen)
	p.C.Decode.SquashCycles.Add(fpen)
	p.C.Rename.SquashCycles.Add(fpen)
	p.C.IEW.SquashCycles.Add(fpen)
	p.C.Rename.UndoneMaps.Add(float64(n))
	p.C.Commit.SquashedInsts.Add(float64(n))
	p.C.IQ.SquashedNonSpecRemoved.Add(float64(n) * 0.05)
	p.BP.Squash(n)
}

// dispatchToWindow enters the op into the reorder window.
func (p *Pipeline) dispatchToWindow(op *isa.Op, done uint64, misp bool) {
	if done < p.cycle {
		done = p.cycle
	}
	if done > p.cycle {
		p.pending.add(done, p.cycle)
	}
	if p.tail-p.head > p.windowMask {
		panic("pipeline: ROB window overflow")
	}
	// Field by field: a composite literal is built on the stack from
	// narrow stores and then copied with one wide load, which stalls on
	// store forwarding.
	e := &p.window[p.tail&p.windowMask]
	e.done = done
	e.class = op.Class
	e.isLoad = op.Kind == isa.KindLoad
	e.isStore = op.Kind == isa.KindStore
	e.nonSpec = op.IsSerializing()
	e.misp = misp
	p.tail++
	p.C.ROB.Writes.Inc()
}

// windowLen returns current ROB occupancy.
func (p *Pipeline) windowLen() int { return int(p.tail - p.head) }

// headEntry returns the oldest window entry; the window must be non-empty.
func (p *Pipeline) headEntry() *inflight { return &p.window[p.head&p.windowMask] }

// inIQ returns how many window entries are still executing (done > cycle),
// the instruction-queue occupancy.
func (p *Pipeline) inIQ() int { return p.pending.count(p.cycle) }

// calendarSpan is how many cycles ahead the completion calendar resolves
// completions per cycle; later ones, which are rare, wait in a short list.
const calendarSpan = 1024

// completionCalendar counts window entries that are still executing. An
// entry only commits once its done cycle has passed and the clock never
// runs backwards, so the entries with done > cycle are exactly the pending
// completions beyond the current cycle.
type completionCalendar struct {
	at   [calendarSpan]uint32      // completions per cycle in (now, now+calendarSpan), by cycle mod span
	busy [calendarSpan / 64]uint64 // bit b set: at[b] > 0
	near int                       // sum of at
	far  []uint64                  // completions at least calendarSpan ahead when added
	now  uint64                    // cycle every completion at or before has expired
}

// add records an entry completing at done > cycle.
func (c *completionCalendar) add(done, cycle uint64) {
	c.advance(cycle)
	if done-cycle < calendarSpan {
		b := done % calendarSpan
		c.at[b]++
		c.busy[b/64] |= 1 << (b % 64)
		c.near++
	} else {
		c.far = append(c.far, done)
	}
}

// count returns the number of entries completing after cycle.
func (c *completionCalendar) count(cycle uint64) int {
	c.advance(cycle)
	return c.near + len(c.far)
}

// advance expires every completion at or before cycle.
func (c *completionCalendar) advance(cycle uint64) {
	if cycle == c.now {
		return
	}
	// The buckets of (now, cycle], all of them once cycle is a span ahead.
	// busy skips the empty ones a word at a time.
	for from, n := c.now+1, min(cycle-c.now, calendarSpan); n > 0 && c.near > 0; {
		b := from % calendarSpan
		w, off := b/64, b%64
		span := min(64-off, n)
		m := c.busy[w] >> off
		if span < 64 {
			m &= 1<<span - 1
		}
		c.busy[w] &^= m << off
		for ; m != 0; m &= m - 1 {
			k := b + uint64(bits.TrailingZeros64(m))
			c.near -= int(c.at[k])
			c.at[k] = 0
		}
		from += span
		n -= span
	}
	if len(c.far) > 0 {
		live := c.far[:0]
		for _, d := range c.far {
			if d > cycle {
				live = append(live, d)
			}
		}
		c.far = live
	}
	c.now = cycle
}

// retireReady retires all head instructions whose completion time has
// passed.
func (p *Pipeline) retireReady() {
	for p.head != p.tail && p.headEntry().done <= p.cycle {
		p.commitHead()
	}
}

// retireForSpace force-retires the head, advancing the clock to its
// completion and accounting the back-pressure stall in earlier stages.
func (p *Pipeline) retireForSpace() {
	if p.head == p.tail {
		return
	}
	h := p.headEntry()
	if h.done > p.cycle {
		stall := float64(h.done - p.cycle)
		p.C.Fetch.MiscStallCycles.Add(stall)
		p.C.Fetch.BlockedCycles.Add(stall)
		p.C.Decode.BlockedCycles.Add(stall)
		p.C.Rename.BlockCycles.Add(stall)
		p.C.IEW.BlockCycles.Add(stall)
		p.C.Commit.ROBHeadStalls.Add(stall)
		p.cycle = h.done
	}
	p.commitHead()
	p.retireReady()
}

// commitHead retires the instruction at the window head.
func (p *Pipeline) commitHead() {
	h := *p.headEntry()
	p.head++
	cc := &p.C.Commit
	cc.OpClass[h.class].Inc()
	cc.DynamicEnergy.Add(0.5)
	switch {
	case h.isLoad:
		cc.Loads.Inc()
		p.lq--
	case h.isStore:
		cc.Stores.Inc()
		p.sq--
	}
	if h.misp {
		cc.BranchMispredicts.Inc()
	}
	if h.nonSpec {
		cc.NonSpecStalls.Add(1)
	}
	p.n.commits++
	if p.Sampler != nil {
		p.Sampler.Tick(1)
	}
}

// Drain retires everything in flight, advancing the clock as needed.
func (p *Pipeline) Drain() {
	for p.head != p.tail {
		h := p.headEntry()
		if h.done > p.cycle {
			p.C.Fetch.PendingDrainCycles.Add(float64(h.done - p.cycle))
			p.cycle = h.done
		}
		p.commitHead()
	}
}

// DrainMark is the pipeline state Drain changes outside the counter
// registry: the window head, the load/store queue counts, the clock and
// the lockstep counts. Drain only reads the window entries it retires.
type DrainMark struct {
	head, cycle uint64
	lq, sq      int
	n           lockstep
}

// Mark records the state a Drain would change, for Rewind.
func (p *Pipeline) Mark() DrainMark {
	return DrainMark{head: p.head, cycle: p.cycle, lq: p.lq, sq: p.sq, n: p.n}
}

// Rewind undoes a Drain since m was taken; the caller restores the
// registry's counter values alongside.
func (p *Pipeline) Rewind(m DrainMark) {
	p.head, p.cycle, p.lq, p.sq, p.n = m.head, m.cycle, m.lq, m.sq, m.n
}

// advance moves the base clock: width instructions per cycle plus static
// energy accrual.
func (p *Pipeline) advance() {
	p.sub++
	if p.sub >= Width {
		p.sub = 0
		p.cycle++
		p.n.cycles++
		p.C.Fetch.StaticEnergy.Add(0.1)
		p.C.Decode.StaticEnergy.Add(0.08)
		p.C.Rename.StaticEnergy.Add(0.08)
		p.C.IQ.StaticEnergy.Add(0.12)
		p.C.IEW.StaticEnergy.Add(0.15)
		p.C.Commit.StaticEnergy.Add(0.08)
	}
}

// histograms refreshes the occupancy and rate histograms periodically.
func (p *Pipeline) histograms() {
	p.opsSinceHist++
	if p.opsSinceHist < 128 {
		return
	}
	p.opsSinceHist = 0

	occ := p.windowLen()
	bucket := occ * (len(p.C.ROB.OccDist) - 1) / ROBEntries
	if bucket >= len(p.C.ROB.OccDist) {
		bucket = len(p.C.ROB.OccDist) - 1
	}
	p.C.ROB.OccDist[bucket].Inc()

	ib := p.inIQ() * (len(p.C.IQ.OccDist) - 1) / 64
	if ib >= len(p.C.IQ.OccDist) {
		ib = len(p.C.IQ.OccDist) - 1
	}
	p.C.IQ.OccDist[ib].Inc()

	lb := clampBucket(p.lq, LQEntries, len(p.C.LSQ.LQOccDist))
	p.C.LSQ.LQOccDist[lb].Inc()
	sb := clampBucket(p.sq, SQEntries, len(p.C.LSQ.SQOccDist))
	p.C.LSQ.SQOccDist[sb].Inc()

	// Rate histograms: instructions per cycle since the last refresh.
	dc := p.cycle - p.lastHistCyc
	di := p.n.commits - p.lastHistInst
	p.lastHistCyc = p.cycle
	p.lastHistInst = p.n.commits
	rate := Width
	if dc > 0 {
		r := int(di / dc)
		if r < rate {
			rate = r
		}
	}
	p.C.Fetch.RateDist[rate].Inc()
	p.C.Decode.RateDist[rate].Inc()
	p.C.Rename.RateDist[rate].Inc()
	p.C.IQ.RateDist[rate].Inc()
	p.C.Commit.RateDist[rate].Inc()
}

func clampBucket(v, maxV, buckets int) int {
	if maxV <= 0 {
		return 0
	}
	b := v * (buckets - 1) / maxV
	if b < 0 {
		b = 0
	}
	if b >= buckets {
		b = buckets - 1
	}
	return b
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
