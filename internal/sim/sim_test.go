package sim

import (
	"context"
	"math/rand"
	"testing"

	"perspectron/internal/isa"
	"perspectron/internal/workload"
	"perspectron/internal/workload/attacks"
	"perspectron/internal/workload/benign"
)

// runAll pulls a whole run of stream on m and returns its samples.
func runAll(m *Machine, stream isa.Stream, maxInsts, interval uint64) [][]float64 {
	var out [][]float64
	r := m.Start(context.Background(), stream, maxInsts, interval)
	for v, ok := r.Next(); ok; v, ok = r.Next() {
		out = append(out, v)
	}
	return out
}

// runProg runs a program for maxInsts on a fresh machine and returns it.
func runProg(t *testing.T, p workload.Program, maxInsts uint64) *Machine {
	t.Helper()
	m := NewMachine()
	samples := runAll(m, p.Stream(rand.New(rand.NewSource(42))), maxInsts, 10_000)
	if len(samples) == 0 {
		t.Fatalf("%s produced no samples", p.Info().Name)
	}
	return m
}

// value reads one counter by name.
func value(t *testing.T, m *Machine, name string) float64 {
	t.Helper()
	c, ok := m.Reg.Lookup(name)
	if !ok {
		t.Fatalf("counter %q not registered", name)
	}
	return c.Value()
}

func TestMachineCounterInventory(t *testing.T) {
	m := NewMachine()
	// The inventory is fixed by construction; DESIGN.md documents the
	// relationship to the paper's 1159 gem5 counters.
	if got := m.NumCounters(); got < 700 {
		t.Fatalf("counter inventory shrank: %d", got)
	}
	// The paper's 17 components must all be populated.
	for comp := 0; comp < 17; comp++ {
		found := false
		for i := 0; i < m.Reg.Len(); i++ {
			if int(m.Reg.Counter(i).Component()) == comp {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("component %d has no counters", comp)
		}
	}
}

func TestFlushReloadFootprint(t *testing.T) {
	m := runProg(t, attacks.FlushReload(), 50_000)
	if value(t, m, "dcache.flush_ops") == 0 {
		t.Fatalf("flush+reload issued no flushes")
	}
	if value(t, m, "fetch.PendingQuiesceStallCycles") == 0 {
		t.Fatalf("flush+reload has no quiesce stalls (victim-wait phase missing)")
	}
	if value(t, m, "tol2bus.trans_dist::ReadSharedReq") == 0 {
		t.Fatalf("flush+reload produced no shared-read bus traffic")
	}
}

func TestFlushFlushFootprint(t *testing.T) {
	m := runProg(t, attacks.FlushFlush(), 50_000)
	if value(t, m, "dcache.flush_ops") == 0 {
		t.Fatalf("flush+flush issued no flushes")
	}
	// The paper's stealth property: the attacker itself performs
	// (almost) no cache loads — misses stay tiny relative to flushes.
	misses := value(t, m, "dcache.ReadReq_misses")
	flushes := value(t, m, "dcache.flush_ops")
	if misses > flushes/4 {
		t.Fatalf("flush+flush has too many read misses (%v) vs flushes (%v)", misses, flushes)
	}
	// Its tell is commit-side serialization pressure.
	if value(t, m, "commit.NonSpecStalls") == 0 {
		t.Fatalf("flush+flush produced no NonSpecStalls")
	}
}

func TestPrimeProbeFootprint(t *testing.T) {
	m := runProg(t, attacks.PrimeProbe(), 50_000)
	if value(t, m, "dcache.flush_ops") != 0 {
		t.Fatalf("prime+probe must not flush")
	}
	if value(t, m, "tol2bus.trans_dist::CleanEvict") == 0 {
		t.Fatalf("prime+probe produced no CleanEvict transactions (the paper's tell)")
	}
	if value(t, m, "dcache.replacements") == 0 {
		t.Fatalf("prime+probe caused no conflict evictions")
	}
}

func TestSpectreV1Footprint(t *testing.T) {
	m := runProg(t, attacks.SpectreV1("fr"), 50_000)
	if value(t, m, "lsq.thread0.squashedLoads") == 0 {
		t.Fatalf("spectreV1 squashed no loads")
	}
	if value(t, m, "iew.branchMispredicts") == 0 {
		t.Fatalf("spectreV1 caused no mispredicts")
	}
	if value(t, m, "commit.SquashedInsts") == 0 {
		t.Fatalf("spectreV1 squashed no instructions")
	}
}

func TestSpectreRSBFootprint(t *testing.T) {
	m := runProg(t, attacks.SpectreRSB("fr"), 50_000)
	if value(t, m, "branchPred.RASInCorrect") == 0 {
		t.Fatalf("spectreRSB caused no RAS mispredicts")
	}
}

func TestSpectreV2Footprint(t *testing.T) {
	m := runProg(t, attacks.SpectreV2("fr"), 50_000)
	if value(t, m, "branchPred.indirectMispredicted") == 0 {
		t.Fatalf("spectreV2 caused no indirect mispredicts")
	}
}

func TestMeltdownFootprint(t *testing.T) {
	m := runProg(t, attacks.Meltdown("fr"), 50_000)
	if value(t, m, "commit.traps") == 0 {
		t.Fatalf("meltdown raised no traps")
	}
	if value(t, m, "dtb.permFaults") == 0 {
		t.Fatalf("meltdown triggered no permission faults")
	}
	if value(t, m, "fetch.PendingTrapStallCycles") == 0 {
		t.Fatalf("meltdown produced no trap stalls")
	}
}

func TestBreakingKASLRFootprint(t *testing.T) {
	m := runProg(t, attacks.BreakingKASLR(), 50_000)
	if value(t, m, "dtb.pageFaults") == 0 {
		t.Fatalf("breakingKSLR probed no unmapped pages")
	}
	if value(t, m, "dtb.walks") == 0 {
		t.Fatalf("breakingKSLR caused no page walks")
	}
}

func TestCacheOutFootprint(t *testing.T) {
	m := runProg(t, attacks.CacheOut("fr"), 50_000)
	if value(t, m, "dcache.lfb_reads") == 0 {
		t.Fatalf("cacheOut sampled no fill-buffer reads")
	}
}

func TestBenignProgramsLackAttackTells(t *testing.T) {
	for _, p := range benign.All() {
		p := p
		t.Run(p.Info().Name, func(t *testing.T) {
			m := runProg(t, p, 30_000)
			if value(t, m, "dcache.flush_ops") != 0 {
				t.Fatalf("benign %s flushes cache lines", p.Info().Name)
			}
			if value(t, m, "commit.traps") != 0 {
				t.Fatalf("benign %s traps", p.Info().Name)
			}
			if value(t, m, "fetch.PendingQuiesceStallCycles") != 0 {
				t.Fatalf("benign %s quiesces", p.Info().Name)
			}
			if value(t, m, "commit.committedInsts") == 0 {
				t.Fatalf("benign %s committed nothing", p.Info().Name)
			}
		})
	}
}

func TestBenignBranchyStillSquashes(t *testing.T) {
	// gobmk-like code must squash plenty of instructions — benign noise
	// that prevents trivial SquashedInsts thresholds.
	m := runProg(t, benign.Gobmk(), 30_000)
	if value(t, m, "commit.SquashedInsts") == 0 {
		t.Fatalf("branchy benign program squashed nothing")
	}
	if value(t, m, "branchPred.condIncorrect") == 0 {
		t.Fatalf("branchy benign program never mispredicted")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() []float64 {
		m := NewMachine()
		runAll(m, attacks.SpectreV1("fr").Stream(rand.New(rand.NewSource(7))), 20_000, 10_000)
		return m.Reg.Snapshot(nil)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic counter %s: %v vs %v",
				NewMachine().Reg.Counter(i).Name(), a[i], b[i])
		}
	}
}

func TestSampleWidthMatchesRegistry(t *testing.T) {
	m := NewMachine()
	samples := runAll(m, benign.Bzip2().Stream(rand.New(rand.NewSource(1))), 25_000, 10_000)
	for _, s := range samples {
		if len(s) != m.NumCounters() {
			t.Fatalf("sample width %d != %d counters", len(s), m.NumCounters())
		}
	}
	if len(samples) < 2 {
		t.Fatalf("expected at least 2 samples, got %d", len(samples))
	}
}

func TestLeakMarksRecorded(t *testing.T) {
	p := attacks.SpectreV1("fr")
	stream := p.Stream(rand.New(rand.NewSource(3)))
	m := NewMachine()
	runAll(m, stream, 20_000, 10_000)
	ls := stream.(*workload.LoopStream)
	if len(ls.LeakMarks()) == 0 {
		t.Fatalf("no leak marks recorded")
	}
	if ls.LeakMarks()[0] > ls.Emitted() {
		t.Fatalf("leak mark beyond emitted ops")
	}
}
