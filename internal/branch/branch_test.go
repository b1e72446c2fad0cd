package branch

import (
	"math/rand"
	"testing"
	"testing/quick"

	"perspectron/internal/stats"
)

func newTestPredictor() (*Predictor, *stats.Registry) {
	reg := stats.NewRegistry()
	p := New(reg)
	reg.Seal()
	return p, reg
}

func TestCondLearnsBias(t *testing.T) {
	p, _ := newTestPredictor()
	pc := uint64(0x400100)
	// Warm up on an always-taken branch; after warmup the predictor should
	// be near-perfect.
	for i := 0; i < 16; i++ {
		p.PredictCond(pc, true)
	}
	wrong := 0
	for i := 0; i < 100; i++ {
		if !p.PredictCond(pc, true) {
			wrong++
		}
	}
	if wrong != 0 {
		t.Fatalf("mispredicted %d/100 on biased branch", wrong)
	}
	if p.C.CondPredicted.Value() != 116 {
		t.Fatalf("condPredicted = %v", p.C.CondPredicted.Value())
	}
}

func TestCondMistrainThenFlip(t *testing.T) {
	p, _ := newTestPredictor()
	pc := uint64(0x400200)
	for i := 0; i < 32; i++ {
		p.PredictCond(pc, true)
	}
	before := p.C.CondIncorrect.Value()
	if p.PredictCond(pc, false) {
		t.Fatalf("flip after mistraining should mispredict")
	}
	if p.C.CondIncorrect.Value() != before+1 {
		t.Fatalf("condIncorrect not incremented")
	}
}

func TestCondLearnsAlternatingViaLocalHistory(t *testing.T) {
	p, _ := newTestPredictor()
	pc := uint64(0x400300)
	// Alternating pattern is learnable by the local history predictor.
	taken := false
	for i := 0; i < 400; i++ {
		p.PredictCond(pc, taken)
		taken = !taken
	}
	wrong := 0
	for i := 0; i < 100; i++ {
		if !p.PredictCond(pc, taken) {
			wrong++
		}
		taken = !taken
	}
	if wrong > 5 {
		t.Fatalf("alternating pattern mispredicted %d/100", wrong)
	}
}

func TestBTBInstallAndHit(t *testing.T) {
	p, _ := newTestPredictor()
	if p.LookupBTB(0x400, 0x500) {
		t.Fatalf("cold BTB lookup hit")
	}
	if !p.LookupBTB(0x400, 0x500) {
		t.Fatalf("warm BTB lookup missed")
	}
	// Changed target counts as a miss and reinstalls.
	if p.LookupBTB(0x400, 0x600) {
		t.Fatalf("target mismatch reported as hit")
	}
	if !p.LookupBTB(0x400, 0x600) {
		t.Fatalf("reinstalled target missed")
	}
	if p.C.BTBLookups.Value() != 4 || p.C.BTBHits.Value() != 2 {
		t.Fatalf("lookups=%v hits=%v", p.C.BTBLookups.Value(), p.C.BTBHits.Value())
	}
}

func TestRASBalancedCallsCorrect(t *testing.T) {
	p, _ := newTestPredictor()
	for depth := 1; depth <= 8; depth++ {
		for i := 0; i < depth; i++ {
			p.Call(uint64(0x1000 + i))
		}
		for i := depth - 1; i >= 0; i-- {
			if !p.Return(uint64(0x1000 + i)) {
				t.Fatalf("balanced return mispredicted at depth %d", depth)
			}
		}
	}
	if p.C.RASIncorrect.Value() != 0 {
		t.Fatalf("RASIncorrect = %v on balanced calls", p.C.RASIncorrect.Value())
	}
}

func TestRASUnbalancedPollutionMispredicts(t *testing.T) {
	p, _ := newTestPredictor()
	p.Call(0x2000)
	p.ras[p.rasTop-1] = 0xdead // SpectreRSB: overwrite the top entry without a call
	if p.Return(0x2000) {
		t.Fatalf("polluted RAS predicted correctly")
	}
	if p.C.RASIncorrect.Value() != 1 {
		t.Fatalf("RASIncorrect = %v", p.C.RASIncorrect.Value())
	}
}

func TestRASEmptyReturnIncorrect(t *testing.T) {
	p, _ := newTestPredictor()
	if p.Return(0x3000) {
		t.Fatalf("return on empty RAS predicted correctly")
	}
}

func TestRASOverflowCircular(t *testing.T) {
	p, _ := newTestPredictor()
	n := RASEntries
	for i := 0; i < n+4; i++ {
		p.Call(uint64(0x1000 + i))
	}
	if p.rasTop != n {
		t.Fatalf("depth = %d, want %d", p.rasTop, n)
	}
	// The most recent n calls should unwind correctly.
	for i := n + 3; i >= 4; i-- {
		if !p.Return(uint64(0x1000 + i)) {
			t.Fatalf("overflowed RAS lost recent entry %d", i)
		}
	}
	// The oldest 4 were overwritten.
	if p.Return(0x1003) {
		t.Fatalf("overwritten entry predicted correctly")
	}
}

func TestIndirectMistrain(t *testing.T) {
	p, _ := newTestPredictor()
	pc := uint64(0x5000)
	p.PredictIndirect(pc, 0xaaaa) // install
	if !p.PredictIndirect(pc, 0xaaaa) {
		t.Fatalf("stable indirect target missed")
	}
	// SpectreV2 (branch target injection): install an attacker-chosen target.
	i := int(pc>>2) % indirectEntries
	p.indTags[i], p.indTargets[i] = pc, 0xbbbb
	if p.PredictIndirect(pc, 0xaaaa) {
		t.Fatalf("mistrained indirect branch predicted correctly")
	}
	if p.C.IndirectMispredicted.Value() != 2 {
		t.Fatalf("indirectMispredicted = %v", p.C.IndirectMispredicted.Value())
	}
}

func TestSquashCounter(t *testing.T) {
	p, _ := newTestPredictor()
	p.Squash(5)
	if p.C.SquashedDirUpdates.Value() != 5 {
		t.Fatalf("squashedDirUpdates = %v", p.C.SquashedDirUpdates.Value())
	}
}

// Property: counters never decrease and condIncorrect <= condPredicted for
// any branch stream.
func TestQuickCounterInvariants(t *testing.T) {
	f := func(pcs []uint16, dirs []bool) bool {
		p, _ := newTestPredictor()
		n := len(pcs)
		if len(dirs) < n {
			n = len(dirs)
		}
		for i := 0; i < n; i++ {
			p.PredictCond(uint64(pcs[i]), dirs[i])
		}
		return p.C.CondIncorrect.Value() <= p.C.CondPredicted.Value() &&
			p.C.CondPredicted.Value() == float64(n) &&
			p.C.UsedLocal.Value()+p.C.UsedGlobal.Value() == float64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

// Property: RAS depth is bounded by capacity for any call/return sequence.
func TestQuickRASDepthBounded(t *testing.T) {
	f := func(ops []bool) bool {
		p, _ := newTestPredictor()
		for i, call := range ops {
			if call {
				p.Call(uint64(i + 1))
			} else {
				p.Return(uint64(i + 1))
			}
			if p.rasTop < 0 || p.rasTop > RASEntries {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Fatal(err)
	}
}
