package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"perspectron/internal/sim"
	"perspectron/internal/workload"
	"perspectron/internal/workload/attacks"
	"perspectron/internal/workload/benign"
)

// MitigationResult quantifies the §IV-G1 hardware mitigations implemented
// in the simulator: context-sensitive fencing, CEASER-style cache index
// re-randomization, and branch-predictor noise injection. For each
// mitigation it reports the attack-channel degradation and the benign
// performance cost — the trade-off the confidence-driven policy navigates.
type MitigationResult struct {
	// Fencing vs SpectreV1.
	FenceSpecLoadsBlocked float64 // fraction of speculative loads blocked
	FenceBenignOverhead   float64 // relative cycle increase on branchy code

	// Cache rekeying vs Prime+Probe.
	RekeyMissNoiseBase   float64 // attacker probe miss rate, unmitigated
	RekeyMissNoiseActive float64 // attacker probe miss rate under rekeying
	RekeyBenignOverhead  float64

	// BP noise vs SpectreV1 (gadget executions per 10K instructions).
	NoiseGadgetRate        map[int]float64 // permille -> squashed loads per 10K
	NoiseBenignMispredicts map[int]float64
}

func runCycles(p workload.Program, cfg Config, seed int64, prep func(*sim.Machine)) (*sim.Machine, uint64) {
	m := sim.NewMachine(sim.DefaultConfig())
	if prep != nil {
		prep(m)
	}
	m.RunStream(p.Stream(rand.New(rand.NewSource(seed))), cfg.MaxInsts, cfg.Interval, func(int, []float64) bool { return true })
	return m, m.Pipe.Cycle()
}

func counter(m *sim.Machine, name string) float64 {
	c, ok := m.Reg.Lookup(name)
	if !ok {
		panic("mitigate: missing counter " + name)
	}
	return c.Value()
}

// Mitigate runs the three mitigation studies.
func Mitigate(cfg Config) *MitigationResult {
	res := &MitigationResult{
		NoiseGadgetRate:        map[int]float64{},
		NoiseBenignMispredicts: map[int]float64{},
	}
	spectre := attacks.SpectreV1("fr")
	pp := attacks.PrimeProbe()

	// 1. Context-sensitive fencing.
	fenced, _ := runCycles(spectre, cfg, 1, func(m *sim.Machine) { m.EnableFencing(true) })
	squashed := counter(fenced, "lsq.thread0.squashedLoads")
	blocked := counter(fenced, "iew.blockedSpecLoads")
	if squashed > 0 {
		res.FenceSpecLoadsBlocked = blocked / squashed
	}
	_, baseCyc := runCycles(benign.Gobmk(), cfg, 2, nil)
	_, fenceCyc := runCycles(benign.Gobmk(), cfg, 2, func(m *sim.Machine) { m.EnableFencing(true) })
	res.FenceBenignOverhead = float64(fenceCyc)/float64(baseCyc) - 1

	// 2. Cache index re-randomization against Prime+Probe.
	missRate := func(m *sim.Machine) float64 {
		return counter(m, "dcache.ReadReq_misses") / counter(m, "dcache.ReadReq_accesses")
	}
	basePP, _ := runCycles(pp, cfg, 3, nil)
	res.RekeyMissNoiseBase = missRate(basePP)
	rekeyPP, _ := runCycles(pp, cfg, 3, func(m *sim.Machine) {
		m.OnSample = func(idx int, _ []float64) { m.RekeyCaches(uint64(idx)*2654435761 + 7) }
	})
	res.RekeyMissNoiseActive = missRate(rekeyPP)
	_, mBase := runCycles(benign.Mcf(), cfg, 4, nil)
	_, mRekey := runCycles(benign.Mcf(), cfg, 4, func(m *sim.Machine) {
		m.OnSample = func(idx int, _ []float64) { m.RekeyCaches(uint64(idx)*2654435761 + 7) }
	})
	res.RekeyBenignOverhead = float64(mRekey)/float64(mBase) - 1

	// 3. Branch-predictor noise, dose-response.
	for _, permille := range []int{0, 100, 300, 500} {
		m, _ := runCycles(spectre, cfg, 5, func(m *sim.Machine) { m.InjectBPNoise(permille) })
		insts := counter(m, "commit.committedInsts")
		res.NoiseGadgetRate[permille] = counter(m, "lsq.thread0.squashedLoads") / insts * 10_000
		mb, _ := runCycles(benign.Gcc(), cfg, 6, func(m *sim.Machine) { m.InjectBPNoise(permille) })
		res.NoiseBenignMispredicts[permille] =
			counter(mb, "branchPred.condIncorrect") / counter(mb, "branchPred.condPredicted")
	}
	return res
}

// Render formats the three studies.
func (r *MitigationResult) Render() string {
	var b strings.Builder
	b.WriteString("§IV-G1 — hardware mitigations, channel damage vs benign cost\n\n")
	fmt.Fprintf(&b, "context-sensitive fencing vs SpectreV1:\n")
	fmt.Fprintf(&b, "  speculative loads blocked:   %.0f%%\n", r.FenceSpecLoadsBlocked*100)
	fmt.Fprintf(&b, "  benign overhead (gobmk):     %.1f%%\n\n", r.FenceBenignOverhead*100)
	fmt.Fprintf(&b, "cache index re-randomization vs Prime+Probe:\n")
	fmt.Fprintf(&b, "  probe miss noise:            %.3f -> %.3f\n",
		r.RekeyMissNoiseBase, r.RekeyMissNoiseActive)
	fmt.Fprintf(&b, "  benign overhead (mcf):       %.1f%%\n\n", r.RekeyBenignOverhead*100)
	b.WriteString("branch-predictor noise vs SpectreV1 (gadget loads per 10K insts):\n")
	for _, permille := range []int{0, 100, 300, 500} {
		fmt.Fprintf(&b, "  noise %3d‰: gadget rate %6.1f   benign mispredict rate %.3f\n",
			permille, r.NoiseGadgetRate[permille], r.NoiseBenignMispredicts[permille])
	}
	b.WriteString("\n(the paper: raise noise/randomization only when PerSpectron's confidence is high)\n")
	return b.String()
}
