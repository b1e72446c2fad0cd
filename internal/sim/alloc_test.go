package sim

import (
	"math/rand"
	"runtime"
	"testing"

	"perspectron/internal/isa"
	"perspectron/internal/workload"
	"perspectron/internal/workload/attacks"
	"perspectron/internal/workload/benign"
)

// recordOps materializes the first n ops of each program's stream, so a
// replay exercises the simulator without the workload generators'
// own allocations.
func recordOps(n int, progs ...workload.Program) []isa.Op {
	var ops []isa.Op
	for _, p := range progs {
		s := p.Stream(rand.New(rand.NewSource(1)))
		for i := 0; i < n; i++ {
			op, ok := s.Next()
			if !ok {
				break
			}
			ops = append(ops, *op)
		}
	}
	return ops
}

// allocOps mixes a speculative attack (mispredicts, transient bodies,
// flushes) with a memory-bound benign kernel (misses, LSQ history, a full
// window).
func allocOps() []isa.Op {
	return recordOps(50_000, attacks.SpectreV1("fr"), benign.Mcf())
}

// TestStepAllocationFree: once a machine is warm, stepping an op allocates
// nothing — no window growth, no history reslicing, no wrong-path slices.
func TestStepAllocationFree(t *testing.T) {
	ops := allocOps()
	m := NewMachine(DefaultConfig())
	replay := func() {
		for i := range ops {
			op := ops[i]
			m.Pipe.Step(&op)
		}
	}
	replay() // warm: caches, snoop filter and window reach steady state
	if allocs := testing.AllocsPerRun(1, replay); allocs != 0 {
		t.Fatalf("%d warm Steps allocated %v times, want 0", len(ops), allocs)
	}
}

// runStreamAllocSlack is what one RunStream may allocate besides its
// sample vectors: the Run, its sampler and that sampler's two snapshot
// buffers, the emit callback, the sample queue, and the replayed stream
// itself.
const runStreamAllocSlack = 16

// TestRunStreamAllocations: a warm-machine RunStream allocates one vector
// per emitted sample plus a fixed constant, however long the run.
func TestRunStreamAllocations(t *testing.T) {
	const insts, interval = 100_000, 10_000
	ops := allocOps()
	m := NewMachine(DefaultConfig())
	samples := 0
	run := func() {
		samples = m.RunStream(isa.NewSliceStream(ops), insts, interval, func(int, []float64) bool { return true })
	}
	run() // warm
	allocs := testing.AllocsPerRun(1, run)
	if samples == 0 {
		t.Fatal("run emitted no samples")
	}
	t.Logf("%d samples, %v allocations", samples, allocs)
	if limit := float64(samples + runStreamAllocSlack); allocs > limit {
		t.Fatalf("warm RunStream of %d instructions allocated %v times, want at most %v (%d samples + %d)",
			insts, allocs, limit, samples, runStreamAllocSlack)
	}
}

// coldRunByteBound caps what a fresh machine's 500K-instruction mcf run
// allocates, machine and workload stream included. Measured at 2.18 MiB
// (go1.24, amd64); the bound leaves about 35% slack. The per-line snoop
// filter the grouped one replaced grew a 1 MiB table per bus on this run,
// 5.16 MiB in all, so a table that grows back fails here.
const coldRunByteBound = 3 << 20

// TestColdRunBytes: the cold-run allocation guard for the simulator's
// per-machine tables.
func TestColdRunBytes(t *testing.T) {
	const insts, interval = 500_000, 10_000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := NewMachine(DefaultConfig())
	n := m.RunStream(benign.Mcf().Stream(rand.New(rand.NewSource(1))), insts, interval,
		func(int, []float64) bool { return true })
	runtime.ReadMemStats(&after)
	if n != insts/interval {
		t.Fatalf("run emitted %d samples, want %d", n, insts/interval)
	}
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("cold mcf run: %d samples, %.2f MiB allocated", n, float64(bytes)/(1<<20))
	if bytes > coldRunByteBound {
		t.Fatalf("a cold %d-instruction mcf run allocated %d bytes, want at most %d", insts, bytes, coldRunByteBound)
	}
}
