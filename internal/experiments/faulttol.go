package experiments

import (
	"fmt"
	"strings"

	"perspectron"
)

// FaultTolRow is one point of the degradation curve: detection quality at a
// given counter-dropout intensity.
type FaultTolRow struct {
	Rate         float64 // per-sample probability each counter is missing
	Attacks      int     // attacks monitored
	Detected     int     // attacks flagged at the default threshold
	PreLeak      int     // attacks flagged no later than their first leak
	MeanCoverage float64 // mean Report.Coverage over attack runs
	BenignFPRate float64 // fraction of benign samples flagged
}

// FaultTolResult sweeps fault intensity against detection rate — the
// robustness analogue of the paper's Fig. 5 bandwidth sweep. The paper's
// replicated-detector claim (§VI) predicts a flat detection curve well past
// modest sensor loss; the degraded-mode scorer renormalizes the perceptron
// margin over surviving weights, so the confidence decays with coverage
// instead of collapsing at the first missing counter.
type FaultTolResult struct {
	Threshold float64
	Rows      []FaultTolRow
	Err       error // training failure; Rows is empty if set
}

// FaultTol trains the standard detector, then monitors every training-set
// attack and benign kernel under increasing random counter dropout injected
// into the run's sampled vectors.
func FaultTol(cfg Config) *FaultTolResult {
	opts := perspectron.DefaultOptions()
	opts.MaxInsts = cfg.MaxInsts
	opts.Runs = cfg.Runs
	opts.Seed = cfg.Seed
	opts.Interval = cfg.Interval

	res := &FaultTolResult{Threshold: opts.Threshold}
	det, err := perspectron.Train(perspectron.TrainingWorkloads(), opts)
	if err != nil {
		res.Err = err
		return res
	}

	// Every (workload, seed) run is simulated once and replayed under each
	// dropout rate: faults rewrite sampled vectors only, so a replay equals
	// a simulation with the faults injected.
	var runs []monitoredRun
	for i, w := range perspectron.AttackWorkloads() {
		runs = append(runs, monitoredRun{w, cfg, cfg.Seed + int64(i)*131})
	}
	nAttacks := len(runs)
	for i, w := range perspectron.BenignWorkloads() {
		runs = append(runs, monitoredRun{w, cfg, cfg.Seed + int64(i)*151})
	}
	recs := recordEach(runs)
	attacks, benign := recs[:nAttacks], recs[nAttacks:]
	for _, rate := range []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5} {
		fc := &perspectron.FaultConfig{Seed: cfg.Seed + 1, Dropout: rate}
		row := FaultTolRow{Rate: rate, Attacks: len(attacks)}
		covSum := 0.0
		for _, rec := range attacks {
			rep, err := det.Replay(rec, fc)
			if err != nil {
				continue
			}
			covSum += rep.Coverage
			if rep.Detected {
				row.Detected++
				if !rep.LeakBefore {
					row.PreLeak++
				}
			}
		}
		if len(attacks) > 0 {
			row.MeanCoverage = covSum / float64(len(attacks))
		}
		flagged, total := 0, 0
		for _, rec := range benign {
			rep, err := det.Replay(rec, fc)
			if err != nil {
				continue
			}
			for _, s := range rep.Samples {
				total++
				if s.Flagged {
					flagged++
				}
			}
		}
		if total > 0 {
			row.BenignFPRate = float64(flagged) / float64(total)
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// Render formats the degradation curve.
func (r *FaultTolResult) Render() string {
	var b strings.Builder
	b.WriteString("fault tolerance — detection vs counter dropout (degraded serving mode)\n\n")
	if r.Err != nil {
		fmt.Fprintf(&b, "training failed: %v\n", r.Err)
		return b.String()
	}
	var rows [][]string
	var rates []float64
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%.0f%%", row.Rate*100),
			fmt.Sprintf("%d/%d", row.Detected, row.Attacks),
			fmt.Sprintf("%d/%d", row.PreLeak, row.Attacks),
			fmt.Sprintf("%.3f", row.MeanCoverage),
			fmt.Sprintf("%.3f", row.BenignFPRate),
		})
		if row.Attacks > 0 {
			rates = append(rates, float64(row.Detected)/float64(row.Attacks))
		}
	}
	b.WriteString(table([]string{"dropout", "detected", "pre-leak", "coverage", "benign FP"}, rows))
	fmt.Fprintf(&b, "\ndetection curve: %s  (threshold %.2f)\n", sparkline(rates, 0, 1), r.Threshold)
	b.WriteString("(replicated detectors: the curve should stay flat well past 20% loss)\n")
	return b.String()
}
