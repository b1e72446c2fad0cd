package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"perspectron/internal/isa"
	"perspectron/internal/tlb"
)

// randomOp draws one structurally valid op.
func randomOp(r *rand.Rand, i int) isa.Op {
	pc := 0x400000 + uint64(i)*4
	switch r.Intn(12) {
	case 0:
		return isa.Op{Kind: isa.KindLoad, PC: pc, Addr: uint64(r.Intn(1 << 22))}
	case 1:
		return isa.Op{Kind: isa.KindStore, PC: pc, Addr: uint64(r.Intn(1 << 22))}
	case 2:
		op := isa.Op{Kind: isa.KindBranch, PC: 0x400000 + uint64(r.Intn(16))*16,
			Taken: r.Intn(2) == 0}
		if r.Intn(4) == 0 {
			op.Transient = []isa.Op{{Kind: isa.KindLoad, Addr: uint64(r.Intn(1 << 22))}}
		}
		return op
	case 3:
		return isa.Op{Kind: isa.KindCall, PC: pc, Target: pc + 0x100}
	case 4:
		return isa.Op{Kind: isa.KindRet, PC: pc, Target: uint64(r.Intn(1 << 22))}
	case 5:
		return isa.Op{Kind: isa.KindFlush, PC: pc, Addr: uint64(r.Intn(1 << 22))}
	case 6:
		return isa.Op{Kind: isa.KindFence, PC: pc}
	case 7:
		return isa.Op{Kind: isa.KindQuiesce, PC: pc, WaitCycles: uint64(r.Intn(64))}
	case 8:
		return isa.Op{Kind: isa.KindLoad, PC: pc,
			Addr: tlb.KernelBase + uint64(r.Intn(1<<16))}
	case 9:
		return isa.Op{Kind: isa.KindIndirect, PC: 0x400000 + uint64(r.Intn(8))*32,
			Target: uint64(0x500000 + r.Intn(4)*0x100)}
	case 10:
		return isa.Op{Kind: isa.KindLoad, PC: pc, Addr: uint64(r.Intn(1 << 22)),
			DependsOnPrev: true, FBRead: r.Intn(8) == 0}
	default:
		return isa.Op{Kind: isa.KindPlain, Class: isa.OpClass(r.Intn(int(isa.NumOpClasses))), PC: pc}
	}
}

// TestQuickRandomProgramsPreserveInvariants runs arbitrary op soup through
// a full machine and checks the global accounting invariants.
func TestQuickRandomProgramsPreserveInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 200 + r.Intn(800)
		ops := make([]isa.Op, n)
		for i := range ops {
			ops[i] = randomOp(r, i)
		}
		m := NewMachine(DefaultConfig())
		runAll(m, isa.NewSliceStream(ops), 0, 1000)

		lookup := func(name string) float64 {
			c, ok := m.Reg.Lookup(name)
			if !ok {
				t.Fatalf("missing counter %s", name)
			}
			return c.Value()
		}

		// Every fetched op commits.
		if lookup("commit.committedInsts") != float64(n) {
			t.Logf("seed %d: committed %v != %d", seed, lookup("commit.committedInsts"), n)
			return false
		}
		// The op-class distribution partitions the committed instructions.
		var classSum float64
		for cl := isa.OpClass(0); cl < isa.NumOpClasses; cl++ {
			classSum += lookup("commit.op_class_0::" + cl.String())
		}
		if classSum != float64(n) {
			t.Logf("seed %d: class sum %v != %d", seed, classSum, n)
			return false
		}
		// Cache accounting: hits + misses == accesses, everywhere.
		for _, cache := range []string{"icache", "dcache", "l2"} {
			if lookup(cache+".overall_hits")+lookup(cache+".overall_misses") !=
				lookup(cache+".overall_accesses") {
				t.Logf("seed %d: %s accounting broken", seed, cache)
				return false
			}
		}
		// No counter may be negative or NaN.
		for i := 0; i < m.Reg.Len(); i++ {
			v := m.Reg.Counter(i).Value()
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Logf("seed %d: counter %s = %v", seed, m.Reg.Counter(i).Name(), v)
				return false
			}
		}
		// The clock moved and is at least the minimum issue time.
		if m.Pipe.Cycle() < uint64(n)/8 {
			t.Logf("seed %d: cycle %d below width bound", seed, m.Pipe.Cycle())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSamplesPartitionCounters checks that per-interval deltas sum to
// the cumulative counter values for random programs.
func TestQuickSamplesPartitionCounters(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 100 + r.Intn(500)
		ops := make([]isa.Op, n)
		for i := range ops {
			ops[i] = randomOp(r, i)
		}
		m := NewMachine(DefaultConfig())
		samples := runAll(m, isa.NewSliceStream(ops), 0, 100)
		if len(samples) == 0 {
			return true
		}
		final := m.Reg.Snapshot(nil)
		// Counter deltas across samples must never exceed the final value.
		sum := make([]float64, len(final))
		for _, s := range samples {
			for j, v := range s {
				if v < 0 {
					t.Logf("seed %d: negative delta", seed)
					return false
				}
				sum[j] += v
			}
		}
		for j := range sum {
			if sum[j] > final[j]+1e-9 {
				t.Logf("seed %d: deltas of %s sum to %v > final %v",
					seed, m.Reg.Counter(j).Name(), sum[j], final[j])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(12))}); err != nil {
		t.Fatal(err)
	}
}
