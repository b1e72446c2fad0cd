package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"perspectron/internal/par"
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

// mitigationRun is one of the studies' runs: a program at a seed on a
// machine prep configures, and the machine once simulated.
type mitigationRun struct {
	prog workload.Program
	seed int64
	prep func(*sim.Machine)
	m    *sim.Machine
}

// simulate runs r at cfg's run length and interval on a fresh machine.
func (r *mitigationRun) simulate(cfg Config) {
	m := sim.NewMachine(sim.DefaultConfig())
	if r.prep != nil {
		r.prep(m)
	}
	m.RunStream(r.prog.Stream(rand.New(rand.NewSource(r.seed))), cfg.MaxInsts, cfg.Interval, func(int, []float64) bool { return true })
	r.m = m
}

// cycles is the simulated run's cycle count.
func (r *mitigationRun) cycles() float64 { return float64(r.m.Pipe.Cycle()) }

func counter(m *sim.Machine, name string) float64 {
	c, ok := m.Reg.Lookup(name)
	if !ok {
		panic("mitigate: missing counter " + name)
	}
	return c.Value()
}

// Mitigate runs the three mitigation studies. Their runs are independent
// (each owns its machine and seed), so all of them simulate concurrently
// through par.Do before the studies read the finished machines.
func Mitigate(cfg Config) *MitigationResult {
	res := &MitigationResult{
		NoiseGadgetRate:        map[int]float64{},
		NoiseBenignMispredicts: map[int]float64{},
	}
	spectre := attacks.SpectreV1("fr")
	pp := attacks.PrimeProbe()
	fence := func(m *sim.Machine) { m.EnableFencing(true) }
	rekey := func(m *sim.Machine) {
		m.OnSample = func(idx int, _ []float64) { m.RekeyCaches(uint64(idx)*2654435761 + 7) }
	}
	var runs []*mitigationRun
	run := func(p workload.Program, seed int64, prep func(*sim.Machine)) *mitigationRun {
		r := &mitigationRun{prog: p, seed: seed, prep: prep}
		runs = append(runs, r)
		return r
	}
	fenced := run(spectre, 1, fence)
	gobmkBase, gobmkFenced := run(benign.Gobmk(), 2, nil), run(benign.Gobmk(), 2, fence)
	basePP, rekeyPP := run(pp, 3, nil), run(pp, 3, rekey)
	mcfBase, mcfRekey := run(benign.Mcf(), 4, nil), run(benign.Mcf(), 4, rekey)
	permilles := []int{0, 100, 300, 500}
	noisySpectre := make([]*mitigationRun, len(permilles))
	noisyGcc := make([]*mitigationRun, len(permilles))
	for i, permille := range permilles {
		noise := func(m *sim.Machine) { m.InjectBPNoise(permille) }
		noisySpectre[i] = run(spectre, 5, noise)
		noisyGcc[i] = run(benign.Gcc(), 6, noise)
	}
	par.Do(len(runs), func(i int) { runs[i].simulate(cfg) })

	// 1. Context-sensitive fencing.
	squashed := counter(fenced.m, "lsq.thread0.squashedLoads")
	blocked := counter(fenced.m, "iew.blockedSpecLoads")
	if squashed > 0 {
		res.FenceSpecLoadsBlocked = blocked / squashed
	}
	res.FenceBenignOverhead = gobmkFenced.cycles()/gobmkBase.cycles() - 1

	// 2. Cache index re-randomization against Prime+Probe.
	missRate := func(m *sim.Machine) float64 {
		return counter(m, "dcache.ReadReq_misses") / counter(m, "dcache.ReadReq_accesses")
	}
	res.RekeyMissNoiseBase = missRate(basePP.m)
	res.RekeyMissNoiseActive = missRate(rekeyPP.m)
	res.RekeyBenignOverhead = mcfRekey.cycles()/mcfBase.cycles() - 1

	// 3. Branch-predictor noise, dose-response.
	for i, permille := range permilles {
		m := noisySpectre[i].m
		insts := counter(m, "commit.committedInsts")
		res.NoiseGadgetRate[permille] = counter(m, "lsq.thread0.squashedLoads") / insts * 10_000
		mb := noisyGcc[i].m
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
