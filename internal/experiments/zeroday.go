package experiments

import (
	"fmt"
	"strings"

	"perspectron/internal/workload"
	"perspectron/internal/workload/attacks"
)

// ZeroDayResult measures detection of attacks entirely outside the training
// corpus: SpectreV4 (speculative store bypass) and RowHammer, which the
// paper explicitly excludes (§II footnote 1) while predicting — for
// RowHammer, in footnote 5 — that the flush- and DRAM-derived invariant
// features would flag them anyway. A high TP rate here is the strongest
// form of the paper's generalization argument.
type ZeroDayResult struct {
	// TPRate maps attack name to the fraction of its samples flagged.
	TPRate map[string]float64
	// Detected maps attack name to whether any sample was flagged.
	Detected map[string]bool
}

// ZeroDay trains PerSpectron on the standard corpus and monitors the
// excluded attacks.
func ZeroDay(cfg Config) *ZeroDayResult {
	p := Prepare(cfg)
	sc := trainPerSpectron(p, 0.25)

	subjects := []workload.Program{
		attacks.SpectreV4("fr"),
		attacks.SpectreV4("pp"),
		attacks.RowHammer(),
	}
	res := &ZeroDayResult{TPRate: map[string]float64{}, Detected: map[string]bool{}}
	runs := make([]monitoredRun, len(subjects))
	for i, prog := range subjects {
		runs[i] = monitoredRun{prog, cfg, cfg.Seed + 303}
	}
	for _, rec := range recordEach(runs) {
		v := sc.verdict(rec)
		flagged := 0
		for _, s := range v.Scores {
			if s >= sc.threshold {
				flagged++
			}
		}
		name := v.Name
		if len(v.Scores) > 0 {
			res.TPRate[name] = float64(flagged) / float64(len(v.Scores))
		}
		res.Detected[name] = v.Detected
	}
	return res
}

// AllDetected reports whether every excluded attack was flagged.
func (r *ZeroDayResult) AllDetected() bool {
	for _, d := range r.Detected {
		if !d {
			return false
		}
	}
	return len(r.Detected) > 0
}

// Render formats the zero-day study.
func (r *ZeroDayResult) Render() string {
	var b strings.Builder
	b.WriteString("beyond §VI-B — attacks excluded from the paper's corpus entirely\n\n")
	var rows [][]string
	for _, name := range []string{"spectreV4-fr", "spectreV4-pp", "rowhammer"} {
		rows = append(rows, []string{
			name,
			fmt.Sprintf("%.3f", r.TPRate[name]),
			fmt.Sprint(r.Detected[name]),
		})
	}
	b.WriteString(table([]string{"attack", "TP rate", "detected"}, rows))
	b.WriteString("\n(the paper's footnote 5 predicted RowHammer's flush footprint would be\n")
	b.WriteString(" caught; SpectreV4 rides the memory-order-violation + channel features)\n")
	return b.String()
}
