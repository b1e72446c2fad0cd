package pipeline

import (
	"perspectron/internal/isa"
	"perspectron/internal/stats"
)

// FetchCounters are the fetch-stage statistics. The paper's §VII-C calls out
// PendingQuiesceStallCycles, IcacheSquashes, MiscStallCycles and
// PendingTrapStallCycles as mutually decorrelated fetch features that
// correlate with stalls and traps in other components.
type FetchCounters struct {
	Insts                     *stats.View
	Branches                  *stats.Counter
	PredictedBranches         *stats.Counter
	Cycles                    *stats.View
	SquashCycles              *stats.Counter
	IcacheStallCycles         *stats.Counter
	IcacheSquashes            *stats.Counter
	ItlbStallCycles           *stats.Counter
	PendingQuiesceStallCycles *stats.Counter
	PendingTrapStallCycles    *stats.Counter
	PendingDrainCycles        *stats.Counter
	MiscStallCycles           *stats.Counter
	BlockedCycles             *stats.Counter
	IdleCycles                *stats.Counter
	RunCycles                 *stats.View
	CacheLines                *stats.Counter
	NoActiveThreadCycles      *stats.Counter
	DynamicEnergy             *stats.Counter
	StaticEnergy              *stats.Counter
	RateDist                  []*stats.Counter // fetched-per-cycle histogram 0..8
}

// DecodeCounters are the decode-stage statistics.
type DecodeCounters struct {
	DecodedInsts   *stats.View
	RunCycles      *stats.View
	IdleCycles     *stats.Counter
	BlockedCycles  *stats.Counter
	UnblockCycles  *stats.Counter
	SquashCycles   *stats.Counter
	BranchResolved *stats.Counter
	BranchMispred  *stats.Counter
	ControlMispred *stats.Counter
	DecodedOps     *stats.Counter
	DynamicEnergy  *stats.Counter
	StaticEnergy   *stats.Counter
	RateDist       []*stats.Counter
}

// RenameCounters are the rename-stage statistics; CommittedMaps and
// UndoneMaps are highlighted as invariant attack features in §VII-C.
type RenameCounters struct {
	RenamedInsts         *stats.View
	RenameLookups        *stats.View
	RenamedOperands      *stats.View
	IntLookups           *stats.Counter
	FpLookups            *stats.Counter
	ROBFullEvents        *stats.Counter
	IQFullEvents         *stats.Counter
	LQFullEvents         *stats.Counter
	SQFullEvents         *stats.Counter
	FullRegisterEvents   *stats.Counter
	UndoneMaps           *stats.Counter
	CommittedMaps        *stats.View
	SerializingInsts     *stats.Counter
	TempSerializingInsts *stats.Counter
	SerializeStallCycles *stats.Counter
	SquashCycles         *stats.Counter
	RunCycles            *stats.View
	IdleCycles           *stats.Counter
	BlockCycles          *stats.Counter
	UnblockCycles        *stats.Counter
	DynamicEnergy        *stats.Counter
	StaticEnergy         *stats.Counter
	RateDist             []*stats.Counter
}

// IQCounters are the instruction-queue statistics, including the per-class
// fu_full and issued distributions.
type IQCounters struct {
	InstsAdded               *stats.View
	NonSpecInstsAdded        *stats.Counter
	InstsIssued              *stats.View
	SquashedInstsIssued      *stats.Counter
	SquashedInstsExamined    *stats.Counter
	SquashedOperandsExamined *stats.Counter
	SquashedNonSpecRemoved   *stats.Counter
	FullEvents               *stats.Counter
	RateDist                 []*stats.Counter
	FuFull                   [isa.NumOpClasses]*stats.Counter
	IssuedClass              [isa.NumOpClasses]*stats.Counter
	FuBusyCycles             [isa.NumOpClasses]*stats.Counter
	OccDist                  []*stats.Counter // occupancy histogram
	DynamicEnergy            *stats.Counter
	StaticEnergy             *stats.Counter
}

// IEWCounters are issue/execute/writeback statistics.
type IEWCounters struct {
	ExecutedInsts              *stats.View
	ExecLoadInsts              *stats.Counter
	ExecStoreInsts             *stats.Counter
	ExecBranches               *stats.Counter
	ExecSquashedInsts          *stats.Counter
	DispSquashedInsts          *stats.Counter
	DispLoadInsts              *stats.Counter
	DispStoreInsts             *stats.Counter
	DispNonSpecInsts           *stats.Counter
	MemOrderViolationEvents    *stats.Counter
	PredictedTakenIncorrect    *stats.Counter
	PredictedNotTakenIncorrect *stats.Counter
	BranchMispredicts          *stats.Counter
	SquashCycles               *stats.Counter
	BlockCycles                *stats.Counter
	UnblockCycles              *stats.Counter
	LSQFullEvents              *stats.Counter
	FenceStallCycles           *stats.Counter // context-sensitive fencing overhead
	BlockedSpecLoads           *stats.Counter // speculative loads suppressed by fencing
	DynamicEnergy              *stats.Counter
	StaticEnergy               *stats.Counter
}

// LSQCounters are load/store-queue statistics. The paper references
// lsq.thread0.* names, preserved here.
type LSQCounters struct {
	SquashedLoads     *stats.Counter
	SquashedStores    *stats.Counter
	ForwLoads         *stats.Counter
	IgnoredResponses  *stats.Counter
	RescheduledLoads  *stats.Counter
	BlockedLoads      *stats.Counter
	MemOrderViolation *stats.Counter
	CacheBlocked      *stats.Counter
	LQOccDist         []*stats.Counter
	SQOccDist         []*stats.Counter
}

// MemDepCounters are memory-dependence-predictor statistics.
type MemDepCounters struct {
	ConflictingLoads  *stats.Counter
	ConflictingStores *stats.Counter
	InsertedLoads     *stats.Counter
	InsertedStores    *stats.Counter
	DepsPredicted     *stats.Counter
	DepsIncorrect     *stats.Counter
}

// CommitCounters are commit-stage statistics, including the committed
// op-class distribution that MAP-style malware detectors rely on.
type CommitCounters struct {
	CommittedInsts    *stats.View
	CommittedOps      *stats.View
	SquashedInsts     *stats.Counter
	NonSpecStalls     *stats.Counter
	BranchMispredicts *stats.Counter
	Branches          *stats.Counter
	Loads             *stats.Counter
	Stores            *stats.Counter
	Membars           *stats.Counter
	Traps             *stats.Counter
	CommitEligible    *stats.View
	ROBHeadStalls     *stats.Counter
	OpClass           [isa.NumOpClasses]*stats.Counter
	RateDist          []*stats.Counter
	DynamicEnergy     *stats.Counter
	StaticEnergy      *stats.Counter
}

// ROBCounters are reorder-buffer statistics.
type ROBCounters struct {
	Reads      *stats.View
	Writes     *stats.Counter
	FullEvents *stats.Counter
	OccDist    []*stats.Counter
}

// Counters aggregates every pipeline-stage counter family. The *stats.View
// fields are the lockstep counters: each reads its value from one of the
// pipeline's integer counts (ops stepped, ops executed, commits, run
// cycles) instead of taking an increment per event.
type Counters struct {
	Fetch  FetchCounters
	Decode DecodeCounters
	Rename RenameCounters
	IQ     IQCounters
	IEW    IEWCounters
	LSQ    LSQCounters
	MemDep MemDepCounters
	Commit CommitCounters
	ROB    ROBCounters
}

func histogram(reg *stats.Registry, comp stats.Component, prefix string, n int) []*stats.Counter {
	out := make([]*stats.Counter, n)
	for i := range out {
		out[i] = reg.NewRaw(comp, prefix+"::"+itoa(i), prefix+" bucket")
	}
	return out
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// lockstep holds the integer counts that the lockstep counters are views
// over: each of those counters moves by a fixed multiple exactly when one
// of these counts moves.
type lockstep struct {
	stepped  uint64 // ops through fetch, decode and rename
	executed uint64 // ops through issue and execute
	commits  uint64 // instructions committed
	cycles   uint64 // base-clock cycles counted by advance
}

// newCounters registers every pipeline-stage counter in reg for a core of
// the given dispatch width; the lockstep counters are views over n.
func newCounters(reg *stats.Registry, width int, n *lockstep) Counters {
	var c Counters
	v := func(comp stats.Component, name, desc string, src *uint64, mult uint64) *stats.View {
		return reg.NewView(comp, comp.String()+"."+name, desc, src, mult)
	}

	fc := &c.Fetch
	f := func(name, desc string) *stats.Counter { return reg.New(stats.CompFetch, name, desc) }
	fc.Insts = v(stats.CompFetch, "Insts", "instructions fetched", &n.stepped, 1)
	fc.Branches = f("Branches", "control instructions fetched")
	fc.PredictedBranches = f("predictedBranches", "branches predicted at fetch")
	fc.Cycles = v(stats.CompFetch, "Cycles", "cycles fetch was active", &n.cycles, 1)
	fc.SquashCycles = f("SquashCycles", "cycles fetch spent squashing")
	fc.IcacheStallCycles = f("IcacheStallCycles", "cycles stalled on icache misses")
	fc.IcacheSquashes = f("IcacheSquashes", "outstanding icache fetches squashed")
	fc.ItlbStallCycles = f("ItlbStallCycles", "cycles stalled on ITLB walks")
	fc.PendingQuiesceStallCycles = f("PendingQuiesceStallCycles", "cycles stalled on quiesce/pause")
	fc.PendingTrapStallCycles = f("PendingTrapStallCycles", "cycles stalled on pending traps")
	fc.PendingDrainCycles = f("PendingDrainCycles", "cycles stalled on pipeline drains")
	fc.MiscStallCycles = f("MiscStallCycles", "cycles stalled for back-pressure from later stages")
	fc.BlockedCycles = f("BlockedCycles", "cycles blocked by downstream full buffers")
	fc.IdleCycles = f("IdleCycles", "cycles with nothing to fetch")
	fc.RunCycles = v(stats.CompFetch, "RunCycles", "cycles fetch delivered instructions", &n.cycles, 1)
	fc.CacheLines = f("CacheLines", "cache lines fetched")
	fc.NoActiveThreadCycles = f("NoActiveThreadStallCycles", "cycles without an active thread")
	fc.DynamicEnergy = f("dynamicEnergy", "fetch dynamic energy")
	fc.StaticEnergy = f("staticEnergy", "fetch static energy")
	fc.RateDist = histogram(reg, stats.CompFetch, "fetch.rateDist", width+1)

	dc := &c.Decode
	d := func(name, desc string) *stats.Counter { return reg.New(stats.CompDecode, name, desc) }
	dc.DecodedInsts = v(stats.CompDecode, "DecodedInsts", "instructions decoded", &n.stepped, 1)
	dc.RunCycles = v(stats.CompDecode, "RunCycles", "cycles decode delivered instructions", &n.cycles, 1)
	dc.IdleCycles = d("IdleCycles", "cycles decode was idle")
	dc.BlockedCycles = d("BlockedCycles", "cycles decode was blocked")
	dc.UnblockCycles = d("UnblockCycles", "cycles decode was unblocking")
	dc.SquashCycles = d("SquashCycles", "cycles decode spent squashing")
	dc.BranchResolved = d("BranchResolved", "branches resolved at decode")
	dc.BranchMispred = d("BranchMispred", "branch mispredicts detected at decode")
	dc.ControlMispred = d("ControlMispred", "control mispredicts detected at decode")
	dc.DecodedOps = d("DecodedOps", "micro-ops produced by decode")
	dc.DynamicEnergy = d("dynamicEnergy", "decode dynamic energy")
	dc.StaticEnergy = d("staticEnergy", "decode static energy")
	dc.RateDist = histogram(reg, stats.CompDecode, "decode.rateDist", width+1)

	rc := &c.Rename
	r := func(name, desc string) *stats.Counter { return reg.New(stats.CompRename, name, desc) }
	rc.RenamedInsts = v(stats.CompRename, "RenamedInsts", "instructions renamed", &n.stepped, 1)
	rc.RenameLookups = v(stats.CompRename, "RenameLookups", "rename table lookups", &n.stepped, 2)
	rc.RenamedOperands = v(stats.CompRename, "RenamedOperands", "operands renamed", &n.stepped, 2)
	rc.IntLookups = r("IntLookups", "integer rename lookups")
	rc.FpLookups = r("FpLookups", "floating-point rename lookups")
	rc.ROBFullEvents = r("ROBFullEvents", "stalls because the ROB was full")
	rc.IQFullEvents = r("IQFullEvents", "stalls because the IQ was full")
	rc.LQFullEvents = r("LQFullEvents", "stalls because the LQ was full")
	rc.SQFullEvents = r("SQFullEvents", "stalls because the SQ was full")
	rc.FullRegisterEvents = r("fullRegistersEvents", "stalls because physical registers ran out")
	rc.UndoneMaps = r("UndoneMaps", "rename map entries undone by squashes")
	rc.CommittedMaps = v(stats.CompRename, "CommittedMaps", "rename map entries committed", &n.commits, 1)
	rc.SerializingInsts = r("serializingInsts", "serializing instructions renamed")
	rc.TempSerializingInsts = r("tempSerializingInsts", "temporarily serializing instructions renamed")
	rc.SerializeStallCycles = r("serializeStallCycles", "cycles stalled for serialization")
	rc.SquashCycles = r("SquashCycles", "cycles rename spent squashing")
	rc.RunCycles = v(stats.CompRename, "RunCycles", "cycles rename delivered instructions", &n.cycles, 1)
	rc.IdleCycles = r("IdleCycles", "cycles rename was idle")
	rc.BlockCycles = r("BlockCycles", "cycles rename was blocked")
	rc.UnblockCycles = r("UnblockCycles", "cycles rename was unblocking")
	rc.DynamicEnergy = r("dynamicEnergy", "rename dynamic energy")
	rc.StaticEnergy = r("staticEnergy", "rename static energy")
	rc.RateDist = histogram(reg, stats.CompRename, "rename.rateDist", width+1)

	qc := &c.IQ
	q := func(name, desc string) *stats.Counter { return reg.New(stats.CompIQ, name, desc) }
	qc.InstsAdded = v(stats.CompIQ, "iqInstsAdded", "instructions added to the IQ", &n.executed, 1)
	qc.NonSpecInstsAdded = q("NonSpecInstsAdded", "non-speculative instructions added to the IQ")
	qc.InstsIssued = v(stats.CompIQ, "iqInstsIssued", "instructions issued from the IQ", &n.executed, 1)
	qc.SquashedInstsIssued = q("iqSquashedInstsIssued", "squashed instructions that had issued")
	qc.SquashedInstsExamined = q("SquashedInstsExamined", "squashed instructions examined during squash walk")
	qc.SquashedOperandsExamined = q("SquashedOperandsExamined", "squashed operands examined during squash walk")
	qc.SquashedNonSpecRemoved = q("SquashedNonSpecRemoved", "squashed non-speculative instructions removed")
	qc.FullEvents = q("iqFullEvents", "IQ-full events")
	qc.RateDist = histogram(reg, stats.CompIQ, "iq.issuedDist", width+1)
	qc.OccDist = histogram(reg, stats.CompIQ, "iq.occDist", 9)
	for cl := isa.OpClass(0); cl < isa.NumOpClasses; cl++ {
		qc.FuFull[cl] = reg.NewRaw(stats.CompIQ, "iq.fu_full::"+cl.String(),
			"issue stalls because all "+cl.String()+" units were busy")
		qc.IssuedClass[cl] = reg.NewRaw(stats.CompIQ, "iq.FU_type_0::"+cl.String(),
			"instructions issued of class "+cl.String())
		qc.FuBusyCycles[cl] = reg.NewRaw(stats.CompIQ, "iq.fuBusyCycles::"+cl.String(),
			"cycles "+cl.String()+" issue waited for a functional unit")
	}
	qc.DynamicEnergy = q("dynamicEnergy", "IQ dynamic energy")
	qc.StaticEnergy = q("staticEnergy", "IQ static energy")

	ic := &c.IEW
	i := func(name, desc string) *stats.Counter { return reg.New(stats.CompIEW, name, desc) }
	ic.ExecutedInsts = v(stats.CompIEW, "iewExecutedInsts", "instructions executed", &n.executed, 1)
	ic.ExecLoadInsts = i("iewExecLoadInsts", "loads executed")
	ic.ExecStoreInsts = i("iewExecStoreInsts", "stores executed")
	ic.ExecBranches = i("iewExecBranches", "branches executed")
	ic.ExecSquashedInsts = i("iewExecSquashedInsts", "executed instructions later squashed")
	ic.DispSquashedInsts = i("iewDispSquashedInsts", "dispatched instructions later squashed")
	ic.DispLoadInsts = i("iewDispLoadInsts", "loads dispatched")
	ic.DispStoreInsts = i("iewDispStoreInsts", "stores dispatched")
	ic.DispNonSpecInsts = i("iewDispNonSpecInsts", "non-speculative instructions dispatched")
	ic.MemOrderViolationEvents = i("memOrderViolationEvents", "memory order violations")
	ic.PredictedTakenIncorrect = i("predictedTakenIncorrect", "taken predictions that were wrong")
	ic.PredictedNotTakenIncorrect = i("predictedNotTakenIncorrect", "not-taken predictions that were wrong")
	ic.BranchMispredicts = i("branchMispredicts", "branch mispredicts detected at execute")
	ic.SquashCycles = i("SquashCycles", "cycles IEW spent squashing")
	ic.BlockCycles = i("BlockCycles", "cycles IEW was blocked")
	ic.UnblockCycles = i("UnblockCycles", "cycles IEW was unblocking")
	ic.LSQFullEvents = i("lsqFullEvents", "dispatch stalls because the LSQ was full")
	ic.FenceStallCycles = i("fenceStallCycles", "cycles of injected-fence serialization (§IV-G1 mitigation)")
	ic.BlockedSpecLoads = i("blockedSpecLoads", "speculative loads blocked by injected fences")
	ic.DynamicEnergy = i("dynamicEnergy", "IEW dynamic energy")
	ic.StaticEnergy = i("staticEnergy", "IEW static energy")

	lc := &c.LSQ
	l := func(name, desc string) *stats.Counter {
		return reg.NewRaw(stats.CompLSQ, "lsq.thread0."+name, desc)
	}
	lc.SquashedLoads = l("squashedLoads", "loads squashed")
	lc.SquashedStores = l("squashedStores", "stores squashed")
	lc.ForwLoads = l("forwLoads", "loads forwarded from the store queue")
	lc.IgnoredResponses = l("ignoredResponses", "memory responses ignored due to squash")
	lc.RescheduledLoads = l("rescheduledLoads", "loads replayed after conflicts")
	lc.BlockedLoads = l("blockedLoads", "loads blocked on cache ports")
	lc.MemOrderViolation = l("memOrderViolation", "order violations detected in the LSQ")
	lc.CacheBlocked = l("cacheBlocked", "LSQ stalls because the cache was blocked")
	lc.LQOccDist = histogram(reg, stats.CompLSQ, "lsq.lqOccDist", 9)
	lc.SQOccDist = histogram(reg, stats.CompLSQ, "lsq.sqOccDist", 9)

	mc := &c.MemDep
	m := func(name, desc string) *stats.Counter { return reg.New(stats.CompMemDep, name, desc) }
	mc.ConflictingLoads = m("conflictingLoads", "loads conflicting with in-flight stores")
	mc.ConflictingStores = m("conflictingStores", "stores conflicting with in-flight loads")
	mc.InsertedLoads = m("insertedLoads", "loads tracked by the dependence predictor")
	mc.InsertedStores = m("insertedStores", "stores tracked by the dependence predictor")
	mc.DepsPredicted = m("depsPredicted", "memory dependences predicted")
	mc.DepsIncorrect = m("depsIncorrect", "memory dependence mispredictions")

	cc := &c.Commit
	cm := func(name, desc string) *stats.Counter { return reg.New(stats.CompCommit, name, desc) }
	cc.CommittedInsts = v(stats.CompCommit, "committedInsts", "instructions committed", &n.commits, 1)
	cc.CommittedOps = v(stats.CompCommit, "committedOps", "micro-ops committed", &n.commits, 1)
	cc.SquashedInsts = cm("SquashedInsts", "instructions squashed before commit")
	cc.NonSpecStalls = cm("NonSpecStalls", "cycles commit stalled on non-speculative instructions")
	cc.BranchMispredicts = cm("branchMispredicts", "mispredicted branches committed")
	cc.Branches = cm("branches", "branches committed")
	cc.Loads = cm("loads", "loads committed")
	cc.Stores = cm("stores", "stores committed")
	cc.Membars = cm("membars", "memory barriers committed")
	cc.Traps = cm("traps", "traps taken at commit")
	cc.CommitEligible = v(stats.CompCommit, "commitEligible", "instructions eligible to commit", &n.commits, 1)
	cc.ROBHeadStalls = cm("robHeadStalls", "cycles the ROB head was not ready")
	for cl := isa.OpClass(0); cl < isa.NumOpClasses; cl++ {
		cc.OpClass[cl] = reg.NewRaw(stats.CompCommit, "commit.op_class_0::"+cl.String(),
			"committed instructions of class "+cl.String())
	}
	cc.RateDist = histogram(reg, stats.CompCommit, "commit.rateDist", width+1)
	cc.DynamicEnergy = cm("dynamicEnergy", "commit dynamic energy")
	cc.StaticEnergy = cm("staticEnergy", "commit static energy")

	oc := &c.ROB
	oc.Reads = v(stats.CompROB, "rob_reads", "ROB reads", &n.commits, 1)
	oc.Writes = reg.New(stats.CompROB, "rob_writes", "ROB writes")
	oc.FullEvents = reg.New(stats.CompROB, "fullEvents", "ROB-full events")
	oc.OccDist = histogram(reg, stats.CompROB, "rob.occDist", 13)

	return c
}
