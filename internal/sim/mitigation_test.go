package sim

import (
	"math/rand"
	"testing"

	"perspectron/internal/workload/attacks"
	"perspectron/internal/workload/benign"
)

func TestFencingBlocksSpectreChannel(t *testing.T) {
	attack := attacks.SpectreV1("fr")

	plain := NewMachine()
	runAll(plain, attack.Stream(rand.New(rand.NewSource(1))), 50_000, 10_000)
	plainBlocked := value(t, plain, "iew.blockedSpecLoads")
	plainSquashed := value(t, plain, "lsq.thread0.squashedLoads")
	if plainBlocked != 0 {
		t.Fatalf("fences blocked loads while disabled")
	}
	if plainSquashed == 0 {
		t.Fatalf("attack produced no speculative loads")
	}

	fenced := NewMachine()
	fenced.EnableFencing(true)
	runAll(fenced, attack.Stream(rand.New(rand.NewSource(1))), 50_000, 10_000)
	blocked := value(t, fenced, "iew.blockedSpecLoads")
	squashed := value(t, fenced, "lsq.thread0.squashedLoads")
	if blocked != squashed {
		t.Fatalf("fencing leaked %v of %v speculative loads", squashed-blocked, squashed)
	}
	if value(t, fenced, "iew.fenceStallCycles") == 0 {
		t.Fatalf("fencing has no performance cost")
	}
}

func TestFencingCostsBenignPerformance(t *testing.T) {
	run := func(fence bool) uint64 {
		m := NewMachine()
		m.EnableFencing(fence)
		runAll(m, benign.Gobmk().Stream(rand.New(rand.NewSource(2))), 30_000, 10_000)
		return m.Pipe.Cycle()
	}
	base, fenced := run(false), run(true)
	if fenced <= base {
		t.Fatalf("fencing made branchy benign code faster: %d vs %d", fenced, base)
	}
}

func TestRekeyBreaksPrimeProbeSets(t *testing.T) {
	attack := attacks.PrimeProbe()

	miss := func(rekey bool) float64 {
		m := NewMachine()
		if rekey {
			m.OnSample = func(idx int, _ []float64) { m.RekeyCaches(uint64(idx)*2654435761 + 7) }
		}
		runAll(m, attack.Stream(rand.New(rand.NewSource(3))), 60_000, 5_000)
		return value(t, m, "dcache.ReadReq_misses") / value(t, m, "dcache.ReadReq_accesses")
	}
	base, rekeyed := miss(false), miss(true)
	if rekeyed <= base {
		t.Fatalf("rekeying did not raise the attacker's miss noise: %.3f vs %.3f", rekeyed, base)
	}
	// The rekey events themselves must be counted.
	m := NewMachine()
	m.OnSample = func(idx int, _ []float64) { m.RekeyCaches(uint64(idx) + 1) }
	runAll(m, attack.Stream(rand.New(rand.NewSource(3))), 30_000, 10_000)
	if value(t, m, "dcache.rekeys") == 0 {
		t.Fatalf("rekeys not counted")
	}
}

func TestBPNoiseDegradesMistraining(t *testing.T) {
	attack := attacks.SpectreV1("fr")

	gadgetLoads := func(permille int) float64 {
		m := NewMachine()
		m.InjectBPNoise(permille)
		runAll(m, attack.Stream(rand.New(rand.NewSource(4))), 60_000, 10_000)
		return value(t, m, "lsq.thread0.squashedLoads")
	}
	base := gadgetLoads(0)
	noisy := gadgetLoads(300)
	if noisy >= base {
		t.Fatalf("noise did not reduce gadget executions: %v vs %v", noisy, base)
	}
	// The injected randomization must be visible in the counter.
	m := NewMachine()
	m.InjectBPNoise(300)
	runAll(m, benign.Gobmk().Stream(rand.New(rand.NewSource(5))), 20_000, 10_000)
	if value(t, m, "branchPred.noiseInjected") == 0 {
		t.Fatalf("noise injections not counted")
	}
	if value(t, m, "branchPred.condIncorrect") == 0 {
		t.Fatalf("no mispredicts under noise")
	}
}

func TestOnSampleHookFires(t *testing.T) {
	m := NewMachine()
	var got []int
	m.OnSample = func(idx int, _ []float64) { got = append(got, idx) }
	runAll(m, benign.Bzip2().Stream(rand.New(rand.NewSource(6))), 35_000, 10_000)
	if len(got) < 3 {
		t.Fatalf("hook fired %d times", len(got))
	}
	for i, idx := range got {
		if idx != i {
			t.Fatalf("hook indices out of order: %v", got)
		}
	}
}
