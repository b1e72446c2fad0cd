// Package branch implements the branch prediction unit of the simulated
// machine: a tournament predictor (local + global + choice), a branch target
// buffer, a return address stack, and an indirect-target predictor. It
// mirrors the gem5 TournamentBP configured in the paper's Table II
// (16 RAS entries, 4096 BTB entries).
//
// The unit exposes the branchPred.* counters that appear throughout the
// paper's feature analysis: condPredicted, condIncorrect, RASInCorrect,
// indirectMispredicted, BTBLookups/BTBHits, and the usage counters that feed
// replicated detectors in other pipeline stages.
package branch

import "perspectron/internal/stats"

// Config sizes the predictor structures.
type Config struct {
	LocalHistoryBits  int // log2 of local history table entries
	LocalCtrBits      int // saturating counter width, typically 2
	GlobalHistoryBits int // global history register width
	BTBEntries        int // Table II: 4096
	RASEntries        int // Table II: 16
	IndirectEntries   int // indirect target cache entries
}

// DefaultConfig matches the paper's Table II tournament predictor.
func DefaultConfig() Config {
	return Config{
		LocalHistoryBits:  11,
		LocalCtrBits:      2,
		GlobalHistoryBits: 12,
		BTBEntries:        4096,
		RASEntries:        16,
		IndirectEntries:   256,
	}
}

// Counters groups the branchPred.* statistics.
type Counters struct {
	Lookups              *stats.Counter
	CondPredicted        *stats.Counter
	CondIncorrect        *stats.Counter
	BTBLookups           *stats.Counter
	BTBHits              *stats.Counter
	RASUsed              *stats.Counter
	RASIncorrect         *stats.Counter
	IndirectLookups      *stats.Counter
	IndirectHits         *stats.Counter
	IndirectMispredicted *stats.Counter
	UsedLocal            *stats.Counter
	UsedGlobal           *stats.Counter
	SquashedDirUpdates   *stats.Counter
	NoiseInjected        *stats.Counter
}

func newCounters(reg *stats.Registry) Counters {
	c := stats.CompBranchPred
	return Counters{
		Lookups:              reg.New(c, "lookups", "total branch predictor lookups"),
		CondPredicted:        reg.New(c, "condPredicted", "conditional branches predicted"),
		CondIncorrect:        reg.New(c, "condIncorrect", "conditional branches mispredicted"),
		BTBLookups:           reg.New(c, "BTBLookups", "BTB lookups"),
		BTBHits:              reg.New(c, "BTBHits", "BTB hits"),
		RASUsed:              reg.New(c, "usedRAS", "return address stack predictions used"),
		RASIncorrect:         reg.New(c, "RASInCorrect", "incorrect RAS predictions"),
		IndirectLookups:      reg.New(c, "indirectLookups", "indirect target predictor lookups"),
		IndirectHits:         reg.New(c, "indirectHits", "indirect target predictor hits"),
		IndirectMispredicted: reg.New(c, "indirectMispredicted", "indirect branches mispredicted"),
		UsedLocal:            reg.New(c, "usedLocal", "predictions taken from the local predictor"),
		UsedGlobal:           reg.New(c, "usedGlobal", "predictions taken from the global predictor"),
		SquashedDirUpdates:   reg.New(c, "squashedDirUpdates", "direction updates dropped due to squash"),
		NoiseInjected:        reg.New(c, "noiseInjected", "predictions randomized by the mitigation (§IV-G1)"),
	}
}

// Predictor is the full branch prediction unit.
type Predictor struct {
	cfg Config
	C   Counters

	localHist  []uint32 // per-PC history registers
	localCtrs  []int8   // indexed by local history
	globalCtrs []int8   // indexed by global history
	choiceCtrs []int8   // chooses local vs global
	globalHist uint32

	btbTags    []uint64
	btbTargets []uint64
	btbValid   []bool
	btbMask    uint64 // BTBEntries-1

	ras    []uint64
	rasTop int // number of valid entries

	indTags    []uint64
	indTargets []uint64
	indMask    uint64 // IndirectEntries-1

	// noisePermille randomizes predictions at the given rate (per mille)
	// when nonzero — the paper's branch-predictor noise-injection
	// mitigation. An internal LCG keeps the stream deterministic yet
	// unobservable by the attacker.
	noisePermille int
	noiseState    uint64
}

// SetNoise enables prediction randomization at ratePermille/1000 (0
// disables). Injected noise occasionally reverses predictions, destroying
// the reliability of predictor mistraining at the cost of extra benign
// mispredicts.
func (p *Predictor) SetNoise(ratePermille int) {
	p.noisePermille = ratePermille
	p.noiseState = 0x9e3779b97f4a7c15
}

// noisy reports whether this prediction is randomized.
func (p *Predictor) noisy() bool {
	if p.noisePermille == 0 {
		return false
	}
	p.noiseState = p.noiseState*6364136223846793005 + 1442695040888963407
	if int((p.noiseState>>33)%1000) < p.noisePermille {
		p.C.NoiseInjected.Inc()
		return true
	}
	return false
}

// localHistEntries is the size of the per-PC local history table.
const localHistEntries = 1 << 10

// New constructs a predictor registering its counters in reg. BTBEntries
// and IndirectEntries must be powers of two.
func New(cfg Config, reg *stats.Registry) *Predictor {
	mustPow2("BTB entry count", cfg.BTBEntries)
	mustPow2("indirect entry count", cfg.IndirectEntries)
	p := &Predictor{
		cfg:        cfg,
		C:          newCounters(reg),
		localHist:  make([]uint32, localHistEntries),
		localCtrs:  make([]int8, 1<<cfg.LocalHistoryBits),
		globalCtrs: make([]int8, 1<<cfg.GlobalHistoryBits),
		choiceCtrs: make([]int8, 1<<cfg.GlobalHistoryBits),
		btbTags:    make([]uint64, cfg.BTBEntries),
		btbTargets: make([]uint64, cfg.BTBEntries),
		btbValid:   make([]bool, cfg.BTBEntries),
		btbMask:    uint64(cfg.BTBEntries - 1),
		ras:        make([]uint64, cfg.RASEntries),
		indTags:    make([]uint64, cfg.IndirectEntries),
		indTargets: make([]uint64, cfg.IndirectEntries),
		indMask:    uint64(cfg.IndirectEntries - 1),
	}
	return p
}

func mustPow2(what string, v int) {
	if v <= 0 || v&(v-1) != 0 {
		panic("branch: " + what + " must be a power of two")
	}
}

func (p *Predictor) localIndex(pc uint64) int {
	h := p.localHist[pc&(localHistEntries-1)]
	return int(h) & (len(p.localCtrs) - 1)
}

func (p *Predictor) globalIndex(pc uint64) int {
	return int(uint64(p.globalHist)^(pc>>2)) & (len(p.globalCtrs) - 1)
}

// PredictCond predicts the direction of a conditional branch at pc, then
// updates the predictor with the actual outcome `taken`. It returns true if
// the prediction was correct. This folds the lookup/update pair together
// because the simulator resolves branches within the same pipeline event.
func (p *Predictor) PredictCond(pc uint64, taken bool) (correct bool) {
	p.C.Lookups.Inc()
	p.C.CondPredicted.Inc()

	li := p.localIndex(pc)
	gi := p.globalIndex(pc)
	localTaken := p.localCtrs[li] >= 0
	globalTaken := p.globalCtrs[gi] >= 0
	useGlobal := p.choiceCtrs[gi] >= 0

	var pred bool
	if useGlobal {
		pred = globalTaken
		p.C.UsedGlobal.Inc()
	} else {
		pred = localTaken
		p.C.UsedLocal.Inc()
	}
	if p.noisy() {
		pred = !pred
	}
	correct = pred == taken

	// Choice update: strengthen the component that was right when they
	// disagreed.
	if localTaken != globalTaken {
		if globalTaken == taken {
			p.choiceCtrs[gi] = satInc(p.choiceCtrs[gi])
		} else {
			p.choiceCtrs[gi] = satDec(p.choiceCtrs[gi])
		}
	}
	if taken {
		p.localCtrs[li] = satInc(p.localCtrs[li])
		p.globalCtrs[gi] = satInc(p.globalCtrs[gi])
	} else {
		p.localCtrs[li] = satDec(p.localCtrs[li])
		p.globalCtrs[gi] = satDec(p.globalCtrs[gi])
	}

	// History updates.
	hi := pc & (localHistEntries - 1)
	p.localHist[hi] = (p.localHist[hi] << 1) & ((1 << p.cfg.LocalHistoryBits) - 1)
	p.globalHist = (p.globalHist << 1) & ((1 << p.cfg.GlobalHistoryBits) - 1)
	if taken {
		p.localHist[hi] |= 1
		p.globalHist |= 1
	}

	if !correct {
		p.C.CondIncorrect.Inc()
	}
	return correct
}

// LookupBTB queries the BTB for pc's target and installs target on miss or
// mismatch. It returns whether the stored target matched.
func (p *Predictor) LookupBTB(pc, target uint64) (hit bool) {
	p.C.BTBLookups.Inc()
	i := pc >> 2 & p.btbMask
	if p.btbValid[i] && p.btbTags[i] == pc && p.btbTargets[i] == target {
		p.C.BTBHits.Inc()
		hit = true
	}
	p.btbValid[i] = true
	p.btbTags[i] = pc
	p.btbTargets[i] = target
	return hit
}

// Call pushes a return address on the RAS (overwriting the bottom on
// overflow, as a circular hardware stack does).
func (p *Predictor) Call(retAddr uint64) {
	if p.rasTop < len(p.ras) {
		p.ras[p.rasTop] = retAddr
		p.rasTop++
		return
	}
	copy(p.ras, p.ras[1:])
	p.ras[len(p.ras)-1] = retAddr
}

// Return pops the RAS and compares against the actual return target. It
// returns true when the RAS prediction was correct. An empty or polluted RAS
// (as produced by SpectreRSB's unbalanced call/return pairs) yields an
// incorrect prediction, counted in RASInCorrect.
func (p *Predictor) Return(actualTarget uint64) (correct bool) {
	p.C.RASUsed.Inc()
	var predicted uint64
	if p.rasTop > 0 {
		p.rasTop--
		predicted = p.ras[p.rasTop]
	}
	correct = predicted == actualTarget && predicted != 0
	if !correct {
		p.C.RASIncorrect.Inc()
	}
	return correct
}

// PredictIndirect predicts the target of an indirect branch at pc and
// updates the target cache with the actual target. It returns whether the
// prediction was correct.
func (p *Predictor) PredictIndirect(pc, target uint64) (correct bool) {
	p.C.IndirectLookups.Inc()
	i := pc >> 2 & p.indMask
	if p.indTags[i] == pc && p.indTargets[i] == target {
		p.C.IndirectHits.Inc()
		correct = true
	} else {
		p.C.IndirectMispredicted.Inc()
	}
	p.indTags[i] = pc
	p.indTargets[i] = target
	return correct
}

// Squash notifies the predictor that in-flight direction updates were
// discarded by a pipeline squash.
func (p *Predictor) Squash(n int) {
	p.C.SquashedDirUpdates.Add(float64(n))
}

func satInc(v int8) int8 {
	if v < 1 {
		return v + 1
	}
	return v
}

func satDec(v int8) int8 {
	if v > -2 {
		return v - 1
	}
	return v
}
