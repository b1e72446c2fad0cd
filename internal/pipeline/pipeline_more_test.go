package pipeline

import (
	"math/rand"
	"testing"

	"perspectron/internal/isa"
)

func TestLQFullBackPressure(t *testing.T) {
	p, _, _ := newTestPipeline(t)
	// A slow head load followed by > LQEntries independent loads must
	// trigger LQ-full events.
	var ops []isa.Op
	ops = append(ops, isa.Op{Kind: isa.KindLoad, PC: 0x1000, Addr: 0x40000000})
	for i := 0; i < 3*DefaultConfig().LQEntries; i++ {
		ops = append(ops, isa.Op{Kind: isa.KindLoad, PC: 0x2000 + uint64(i)*4,
			Addr: 0x10000 + uint64(i%4)*64}) // warm lines: fast
	}
	p.Run(isa.NewSliceStream(ops), 0)
	if p.C.Rename.LQFullEvents.Value() == 0 {
		t.Fatalf("no LQ-full events")
	}
}

func TestSQFullBackPressure(t *testing.T) {
	p, _, _ := newTestPipeline(t)
	var ops []isa.Op
	ops = append(ops, isa.Op{Kind: isa.KindLoad, PC: 0x1000, Addr: 0x40000000})
	for i := 0; i < 3*DefaultConfig().SQEntries; i++ {
		ops = append(ops, isa.Op{Kind: isa.KindStore, PC: 0x2000 + uint64(i)*4,
			Addr: 0x10000 + uint64(i%4)*64})
	}
	p.Run(isa.NewSliceStream(ops), 0)
	if p.C.Rename.SQFullEvents.Value() == 0 {
		t.Fatalf("no SQ-full events")
	}
}

func TestFUContentionCounted(t *testing.T) {
	p, _, _ := newTestPipeline(t)
	// FloatDiv has 2 units with 12-cycle latency: a burst must contend.
	ops := make([]isa.Op, 64)
	for i := range ops {
		ops[i] = isa.Op{Kind: isa.KindPlain, Class: isa.FloatDiv, PC: 0x1000 + uint64(i)*4}
	}
	p.Run(isa.NewSliceStream(ops), 0)
	if p.C.IQ.FuFull[isa.FloatDiv].Value() == 0 {
		t.Fatalf("no fu_full events for FloatDiv burst")
	}
	if p.C.IQ.FuBusyCycles[isa.FloatDiv].Value() == 0 {
		t.Fatalf("no FU busy cycles accumulated")
	}
	if p.C.IQ.IssuedClass[isa.FloatDiv].Value() != 64 {
		t.Fatalf("issued class count = %v", p.C.IQ.IssuedClass[isa.FloatDiv].Value())
	}
}

func TestIndirectTransient(t *testing.T) {
	p, h, _ := newTestPipeline(t)
	probe := uint64(0x12340000)
	var ops []isa.Op
	// Train the indirect target, then diverge with a gadget.
	for i := 0; i < 4; i++ {
		ops = append(ops, isa.Op{Kind: isa.KindIndirect, PC: 0x3000, Target: 0x5000})
	}
	ops = append(ops, isa.Op{Kind: isa.KindIndirect, PC: 0x3000, Target: 0x6000,
		Transient: []isa.Op{{Kind: isa.KindLoad, Addr: probe}}})
	p.Run(isa.NewSliceStream(ops), 0)
	if !h.L1D.Present(probe) {
		t.Fatalf("indirect mispredict did not execute the transient body")
	}
	if p.BP.C.IndirectMispredicted.Value() == 0 {
		t.Fatalf("no indirect mispredicts counted")
	}
}

func TestQuiesceDefaultWait(t *testing.T) {
	p, _, _ := newTestPipeline(t)
	ops := []isa.Op{{Kind: isa.KindQuiesce, PC: 0x1000}} // WaitCycles unset
	p.Run(isa.NewSliceStream(ops), 0)
	if p.C.Fetch.PendingQuiesceStallCycles.Value() == 0 {
		t.Fatalf("default quiesce wait not applied")
	}
}

func TestCommitKindCounters(t *testing.T) {
	p, _, _ := newTestPipeline(t)
	ops := []isa.Op{
		{Kind: isa.KindLoad, PC: 0x1000, Addr: 0x1000},
		{Kind: isa.KindLoad, PC: 0x1004, Addr: 0x2000},
		{Kind: isa.KindStore, PC: 0x1008, Addr: 0x3000},
		plain(0x100c),
	}
	p.Run(isa.NewSliceStream(ops), 0)
	if p.C.Commit.Loads.Value() != 2 || p.C.Commit.Stores.Value() != 1 {
		t.Fatalf("commit loads/stores = %v/%v",
			p.C.Commit.Loads.Value(), p.C.Commit.Stores.Value())
	}
	if p.C.Commit.OpClass[isa.MemRead].Value() != 2 {
		t.Fatalf("MemRead class count = %v", p.C.Commit.OpClass[isa.MemRead].Value())
	}
}

func TestFencingSuppressesTransientLoads(t *testing.T) {
	p, h, _ := newTestPipeline(t)
	p.SetFencing(true)
	if !p.fencing {
		t.Fatalf("fencing not set")
	}
	probe := uint64(0x22220000)
	var ops []isa.Op
	for i := 0; i < 16; i++ {
		ops = append(ops, isa.Op{Kind: isa.KindBranch, PC: 0x4000, Taken: true, Target: 0x4040})
	}
	ops = append(ops, isa.Op{Kind: isa.KindBranch, PC: 0x4000, Taken: false, Target: 0x4040,
		Transient: []isa.Op{{Kind: isa.KindLoad, Addr: probe}}})
	p.Run(isa.NewSliceStream(ops), 0)
	if h.L1D.Present(probe) {
		t.Fatalf("fencing let a transient load fill the cache")
	}
	if p.C.IEW.BlockedSpecLoads.Value() == 0 {
		t.Fatalf("blocked speculative loads not counted")
	}
	if p.C.IEW.FenceStallCycles.Value() == 0 {
		t.Fatalf("fence serialization cost not counted")
	}
}

func TestGenericWrongPathOnBenignMispredict(t *testing.T) {
	p, _, _ := newTestPipeline(t)
	// A hard-to-predict branch with no explicit gadget still drags generic
	// wrong-path work through the pipeline.
	var ops []isa.Op
	taken := true
	for i := 0; i < 64; i++ {
		// Irregular pattern defeats the predictor.
		taken = !taken
		if i%5 == 0 {
			taken = !taken
		}
		ops = append(ops, isa.Op{Kind: isa.KindBranch, PC: 0x5000, Taken: taken,
			Target: 0x5040, Addr: 0x9000 + uint64(i)*64})
	}
	p.Run(isa.NewSliceStream(ops), 0)
	if p.C.IEW.BranchMispredicts.Value() == 0 {
		t.Fatalf("irregular branch never mispredicted")
	}
	if p.C.Commit.SquashedInsts.Value() == 0 {
		t.Fatalf("benign mispredicts squashed nothing")
	}
	if p.C.IQ.SquashedInstsExamined.Value() == 0 {
		t.Fatalf("wrong-path work not examined")
	}
}

func TestPhysicalRegisterPressure(t *testing.T) {
	p, _, _ := newTestPipeline(t)
	// The register-pressure threshold sits below the ROB bound, so a long
	// stall behind a slow head trips it.
	var ops []isa.Op
	for rep := 0; rep < 4; rep++ {
		ops = append(ops, isa.Op{Kind: isa.KindLoad, PC: 0x1000 + uint64(rep)*4,
			Addr: 0x50000000 + uint64(rep)<<20})
		for i := 0; i < 400; i++ {
			cl := isa.IntAlu
			if i%2 == 0 {
				cl = isa.SimdAlu
			}
			ops = append(ops, isa.Op{Kind: isa.KindPlain, Class: cl,
				PC: 0x2000 + uint64(rep*400+i)*4})
		}
	}
	p.Run(isa.NewSliceStream(ops), 0)
	if p.C.Rename.ROBFullEvents.Value() == 0 && p.C.Rename.FullRegisterEvents.Value() == 0 {
		t.Fatalf("no structural back-pressure recorded")
	}
}

// TestCompletionCalendarMatchesScan checks the calendar's count against a
// brute-force scan of every recorded completion, across small clock steps,
// jumps past the calendar span and completions beyond it.
func TestCompletionCalendarMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var c completionCalendar
	var all []uint64
	var cycle uint64
	for i := 0; i < 200_000; i++ {
		switch r := rng.Intn(100); {
		case r < 2:
			cycle += calendarSpan + uint64(rng.Intn(3*calendarSpan))
		case r < 40:
			cycle += uint64(rng.Intn(40))
		}
		if rng.Intn(4) > 0 {
			off := uint64(1 + rng.Intn(64))
			if rng.Intn(50) == 0 {
				off = uint64(1 + rng.Intn(4*calendarSpan))
			}
			c.add(cycle+off, cycle)
			all = append(all, cycle+off)
		}
		want := 0
		live := all[:0]
		for _, d := range all {
			if d > cycle {
				want++
				live = append(live, d)
			}
		}
		all = live
		if got := c.count(cycle); got != want {
			t.Fatalf("step %d, cycle %d: count %d, scan %d", i, cycle, got, want)
		}
	}
}
