package pipeline

import (
	"testing"

	"perspectron/internal/branch"
	"perspectron/internal/cache"
	"perspectron/internal/dram"
	"perspectron/internal/isa"
	"perspectron/internal/stats"
	"perspectron/internal/tlb"
)

func newTestPipeline(t *testing.T) (*Pipeline, *cache.Hierarchy, *stats.Registry) {
	t.Helper()
	reg := stats.NewRegistry()
	mem := dram.New(dram.DefaultConfig(), reg)
	h := cache.NewHierarchy(reg, mem)
	bp := branch.New(branch.DefaultConfig(), reg)
	itb := tlb.New(tlb.DefaultConfig(), reg, stats.CompITB, "itb")
	dtb := tlb.New(tlb.DefaultConfig(), reg, stats.CompDTB, "dtb")
	p := New(DefaultConfig(), reg)
	p.Mem = h
	p.BP = bp
	p.ITB = itb
	p.DTB = dtb
	reg.Seal()
	return p, h, reg
}

func plain(pc uint64) isa.Op {
	return isa.Op{Kind: isa.KindPlain, Class: isa.IntAlu, PC: pc}
}

func TestRunCommitsEverything(t *testing.T) {
	p, _, _ := newTestPipeline(t)
	ops := make([]isa.Op, 100)
	for i := range ops {
		ops[i] = plain(0x400000 + uint64(i)*4)
	}
	n := p.Run(isa.NewSliceStream(ops), 0)
	if n != 100 {
		t.Fatalf("committed %d, want 100", n)
	}
	if p.C.Commit.CommittedInsts.Value() != 100 {
		t.Fatalf("committedInsts = %v", p.C.Commit.CommittedInsts.Value())
	}
	if p.C.Commit.OpClass[isa.IntAlu].Value() != 100 {
		t.Fatalf("op class distribution wrong: %v", p.C.Commit.OpClass[isa.IntAlu].Value())
	}
	if p.Cycle() == 0 {
		t.Fatalf("clock did not advance")
	}
}

// TestOnCommitCallback: the pipeline ticks its sampler once per committed
// instruction, so an interval-1 sampler fires on every commit.
func TestOnCommitCallback(t *testing.T) {
	p, _, reg := newTestPipeline(t)
	var got uint64
	p.Sampler = stats.NewSampler(reg, 1, func([]float64) { got++ })
	ops := []isa.Op{plain(0x1000), plain(0x1004), plain(0x1008)}
	p.Run(isa.NewSliceStream(ops), 0)
	if got != 3 || p.Sampler.Committed() != 3 {
		t.Fatalf("%d samples over %d ticks, want 3 and 3", got, p.Sampler.Committed())
	}
}

func TestMaxInstsStopsEarly(t *testing.T) {
	p, _, _ := newTestPipeline(t)
	i := 0
	var op isa.Op
	stream := isa.FuncStream(func() (*isa.Op, bool) {
		i++
		op = plain(uint64(i) * 4)
		return &op, true
	})
	n := p.Run(stream, 50)
	if n != 50 {
		t.Fatalf("committed %d, want 50", n)
	}
}

func TestMispredictedBranchRunsTransient(t *testing.T) {
	p, h, _ := newTestPipeline(t)
	var ops []isa.Op
	pc := uint64(0x400000)
	// Train the branch taken.
	for i := 0; i < 32; i++ {
		ops = append(ops, isa.Op{Kind: isa.KindBranch, PC: pc, Taken: true, Target: pc + 64})
	}
	// Attack iteration: actual not-taken with a transient gadget that
	// loads a secret-dependent probe line.
	probe := uint64(0x7000000)
	ops = append(ops, isa.Op{
		Kind: isa.KindBranch, PC: pc, Taken: false, Target: pc + 64,
		Transient: []isa.Op{
			{Kind: isa.KindLoad, Addr: 0x6000000},
			{Kind: isa.KindLoad, Addr: probe, DependsOnPrev: true},
		},
	})
	p.Run(isa.NewSliceStream(ops), 0)

	if p.C.IEW.BranchMispredicts.Value() != 1 {
		t.Fatalf("branchMispredicts = %v", p.C.IEW.BranchMispredicts.Value())
	}
	if p.C.LSQ.SquashedLoads.Value() != 2 {
		t.Fatalf("squashedLoads = %v", p.C.LSQ.SquashedLoads.Value())
	}
	if p.C.Fetch.SquashCycles.Value() == 0 || p.C.Commit.SquashedInsts.Value() != 2 {
		t.Fatalf("squash accounting missing: fetchSquash=%v squashedInsts=%v",
			p.C.Fetch.SquashCycles.Value(), p.C.Commit.SquashedInsts.Value())
	}
	// The transient loads must have really filled the cache: the probe
	// line is now present — that is the side channel.
	if !h.L1D.Present(probe) {
		t.Fatalf("transient load did not fill the cache")
	}
}

func TestCorrectBranchNoTransient(t *testing.T) {
	p, h, _ := newTestPipeline(t)
	var ops []isa.Op
	pc := uint64(0x400000)
	for i := 0; i < 64; i++ {
		ops = append(ops, isa.Op{Kind: isa.KindBranch, PC: pc, Taken: true, Target: pc + 64,
			Transient: []isa.Op{{Kind: isa.KindLoad, Addr: 0x9000000}}})
	}
	p.Run(isa.NewSliceStream(ops), 0)
	// After warmup, predictions are correct and the transient body must
	// not run; the gadget line stays cold.
	if h.L1D.Present(0x9000000) && p.C.IEW.BranchMispredicts.Value() == 0 {
		t.Fatalf("transient body ran on correctly predicted branch")
	}
	if p.C.IEW.BranchMispredicts.Value() > 4 {
		t.Fatalf("too many mispredicts on a biased branch: %v", p.C.IEW.BranchMispredicts.Value())
	}
}

func TestMeltdownFaultingLoad(t *testing.T) {
	p, h, _ := newTestPipeline(t)
	probe := uint64(0x8000000)
	ops := []isa.Op{
		plain(0x1000),
		{Kind: isa.KindLoad, PC: 0x1004, Addr: tlb.KernelBase + 0x100,
			Transient: []isa.Op{
				{Kind: isa.KindLoad, Addr: probe, DependsOnPrev: true},
			}},
		plain(0x1008),
	}
	p.Run(isa.NewSliceStream(ops), 0)
	if p.C.Commit.Traps.Value() != 1 {
		t.Fatalf("traps = %v", p.C.Commit.Traps.Value())
	}
	if p.C.Fetch.PendingTrapStallCycles.Value() == 0 {
		t.Fatalf("no trap stall cycles")
	}
	if !h.L1D.Present(probe) {
		t.Fatalf("Meltdown transient window did not touch the probe line")
	}
	// All three committed-path ops still commit (the faulting load commits
	// architecturally as the trap point in this model).
	if p.C.Commit.CommittedInsts.Value() != 3 {
		t.Fatalf("committed = %v", p.C.Commit.CommittedInsts.Value())
	}
}

func TestSerializingDrains(t *testing.T) {
	p, _, _ := newTestPipeline(t)
	ops := []isa.Op{
		{Kind: isa.KindLoad, PC: 0x1000, Addr: 0xa000000}, // cold: long latency
		{Kind: isa.KindFence, PC: 0x1004},
		plain(0x1008),
	}
	p.Run(isa.NewSliceStream(ops), 0)
	if p.C.Rename.SerializingInsts.Value() != 1 {
		t.Fatalf("serializingInsts = %v", p.C.Rename.SerializingInsts.Value())
	}
	if p.C.Rename.SerializeStallCycles.Value() == 0 {
		t.Fatalf("no serialize stall cycles despite in-flight load")
	}
	if p.C.Commit.NonSpecStalls.Value() == 0 {
		t.Fatalf("no NonSpecStalls")
	}
}

func TestFlushCountsAndSerializes(t *testing.T) {
	p, h, _ := newTestPipeline(t)
	addr := uint64(0xb000000)
	ops := []isa.Op{
		{Kind: isa.KindLoad, PC: 0x1000, Addr: addr},
		{Kind: isa.KindFlush, PC: 0x1004, Addr: addr},
	}
	p.Run(isa.NewSliceStream(ops), 0)
	if h.L1D.Present(addr) {
		t.Fatalf("flush left line present")
	}
	if p.C.Rename.TempSerializingInsts.Value() != 1 {
		t.Fatalf("tempSerializingInsts = %v", p.C.Rename.TempSerializingInsts.Value())
	}
	if h.L1D.C.FlushOps.Value() != 1 {
		t.Fatalf("flush did not reach the cache")
	}
}

func TestQuiesceStalls(t *testing.T) {
	p, _, _ := newTestPipeline(t)
	ops := []isa.Op{
		plain(0x1000),
		{Kind: isa.KindQuiesce, PC: 0x1004, WaitCycles: 500},
		plain(0x1008),
	}
	p.Run(isa.NewSliceStream(ops), 0)
	if p.C.Fetch.PendingQuiesceStallCycles.Value() != 500 {
		t.Fatalf("quiesce stall cycles = %v", p.C.Fetch.PendingQuiesceStallCycles.Value())
	}
	if p.Cycle() < 500 {
		t.Fatalf("quiesce did not advance the clock: %d", p.Cycle())
	}
}

func TestStoreLoadForwarding(t *testing.T) {
	p, _, _ := newTestPipeline(t)
	ops := []isa.Op{
		{Kind: isa.KindStore, PC: 0x1000, Addr: 0xc000000},
		{Kind: isa.KindLoad, PC: 0x1004, Addr: 0xc000000},
	}
	p.Run(isa.NewSliceStream(ops), 0)
	if p.C.LSQ.ForwLoads.Value() != 1 {
		t.Fatalf("forwLoads = %v", p.C.LSQ.ForwLoads.Value())
	}
}

func TestMemOrderViolation(t *testing.T) {
	p, _, _ := newTestPipeline(t)
	// A load that misses (long completion) followed immediately by a store
	// to the same line: the store finds the load completed out of order.
	ops := []isa.Op{
		{Kind: isa.KindLoad, PC: 0x1000, Addr: 0xd000000},
		{Kind: isa.KindStore, PC: 0x1004, Addr: 0xd000000},
	}
	p.Run(isa.NewSliceStream(ops), 0)
	if p.C.IEW.MemOrderViolationEvents.Value() != 1 {
		t.Fatalf("memOrderViolationEvents = %v", p.C.IEW.MemOrderViolationEvents.Value())
	}
	if p.C.LSQ.RescheduledLoads.Value() != 1 {
		t.Fatalf("rescheduledLoads = %v", p.C.LSQ.RescheduledLoads.Value())
	}
}

func TestROBBackPressurePropagatesToFetch(t *testing.T) {
	p, _, _ := newTestPipeline(t)
	// A cold (long-latency) load at the window head followed by hundreds of
	// quick independent ops fills the ROB behind it; the back-pressure must
	// appear as fetch MiscStallCycles (the paper's example of a replicated
	// cross-stage feature).
	var ops []isa.Op
	for rep := 0; rep < 10; rep++ {
		ops = append(ops, isa.Op{Kind: isa.KindLoad, PC: 0x1000 + uint64(rep)*4,
			Addr: 0x10000000 + uint64(rep)*1<<20})
		for i := 0; i < 400; i++ {
			cl := isa.IntAlu
			if i%2 == 0 {
				cl = isa.SimdAlu // spread across FU pools so issue keeps up
			}
			ops = append(ops, isa.Op{Kind: isa.KindPlain, Class: cl,
				PC: 0x2000 + uint64(rep*400+i)*4})
		}
	}
	p.Run(isa.NewSliceStream(ops), 0)
	if p.C.Rename.ROBFullEvents.Value() == 0 {
		t.Fatalf("no ROB full events on dependent-miss stream")
	}
	if p.C.Fetch.MiscStallCycles.Value() == 0 {
		t.Fatalf("ROB pressure did not propagate to fetch.MiscStallCycles")
	}
}

func TestRetCorrectAfterCall(t *testing.T) {
	p, _, _ := newTestPipeline(t)
	ops := []isa.Op{
		{Kind: isa.KindCall, PC: 0x1000, Target: 0x2000},
		{Kind: isa.KindRet, PC: 0x2004, Target: 0x1004},
	}
	p.Run(isa.NewSliceStream(ops), 0)
	if p.BP.C.RASIncorrect.Value() != 0 {
		t.Fatalf("balanced call/ret mispredicted")
	}
}

func TestFBReadDoesNotFillCache(t *testing.T) {
	p, h, _ := newTestPipeline(t)
	ops := []isa.Op{
		{Kind: isa.KindLoad, PC: 0x1000, Addr: 0xe000000, FBRead: true},
	}
	p.Run(isa.NewSliceStream(ops), 0)
	if h.L1D.Present(0xe000000) {
		t.Fatalf("fill-buffer read architecturally filled the cache")
	}
	if h.L1D.C.LFBReads.Value() != 1 {
		t.Fatalf("LFB read not counted")
	}
}

func TestHistogramsPopulate(t *testing.T) {
	p, _, _ := newTestPipeline(t)
	ops := make([]isa.Op, 2000)
	for i := range ops {
		ops[i] = plain(uint64(i) * 4)
	}
	p.Run(isa.NewSliceStream(ops), 0)
	var total float64
	for _, c := range p.C.ROB.OccDist {
		total += c.Value()
	}
	if total == 0 {
		t.Fatalf("ROB occupancy histogram never updated")
	}
}

func TestCommittedMapsTrackCommits(t *testing.T) {
	p, _, _ := newTestPipeline(t)
	ops := make([]isa.Op, 64)
	for i := range ops {
		ops[i] = plain(uint64(i) * 4)
	}
	p.Run(isa.NewSliceStream(ops), 0)
	if p.C.Rename.CommittedMaps.Value() != p.C.Commit.CommittedInsts.Value() {
		t.Fatalf("CommittedMaps %v != committedInsts %v",
			p.C.Rename.CommittedMaps.Value(), p.C.Commit.CommittedInsts.Value())
	}
}
