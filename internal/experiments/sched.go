package experiments

import (
	"fmt"
	"strings"

	"perspectron/internal/sched"
	"perspectron/internal/trace"
	"perspectron/internal/workload"
	"perspectron/internal/workload/attacks"
	"perspectron/internal/workload/benign"
)

// SchedResult evaluates the deployment scenario the paper targets: the
// detector watches shared hardware while multiple processes time-multiplex
// the core, and the OS attributes each flagged sampling interval to the
// process that was running (§IV-G: "alerts the operating system ... to
// isolate a suspicious process"). Training uses isolated per-process
// traces; at deployment the cross-process cache and predictor pollution
// makes every interval noisier — the detector must still attribute
// correctly.
type SchedResult struct {
	// AttackerTPR is the fraction of attacker-owned intervals flagged.
	AttackerTPR float64
	// BenignFPR is the fraction of benign-owned intervals flagged.
	BenignFPR float64
	// PerProgram maps each scheduled program to its flagged fraction.
	PerProgram map[string]float64
	Switches   int
}

// Sched trains PerSpectron on the standard isolated corpus and deploys it
// on a 4-way multiprogrammed mix with one attacker.
func Sched(cfg Config) *SchedResult {
	p := Prepare(cfg)
	sc := trainPerSpectron(p, 0.25)

	s, err := sched.New(cfg.Interval, cfg.Interval, cfg.Seed+77,
		benign.Gcc(),
		attacks.FlushReload(),
		benign.Mcf(),
		benign.Povray(),
	)
	if err != nil {
		panic(err)
	}
	samples := s.Run(cfg.MaxInsts * 4)

	res := &SchedResult{PerProgram: map[string]float64{}, Switches: s.Switches()}
	flaggedBy := map[string]int{}
	totalBy := map[string]int{}
	var atkFlag, atkTotal, benFlag, benTotal float64
	points := make([]trace.Sample, len(samples))
	for i, smp := range samples {
		points[i] = trace.Sample{Index: smp.Index / len(s.Tasks()), Raw: smp.Raw}
	}
	scores := sc.scores(points)
	for i, smp := range samples {
		flagged := scores[i] >= sc.threshold
		totalBy[smp.Program]++
		if flagged {
			flaggedBy[smp.Program]++
		}
		if smp.Label == workload.Malicious {
			atkTotal++
			if flagged {
				atkFlag++
			}
		} else {
			benTotal++
			if flagged {
				benFlag++
			}
		}
	}
	for prog, total := range totalBy {
		res.PerProgram[prog] = float64(flaggedBy[prog]) / float64(total)
	}
	if atkTotal > 0 {
		res.AttackerTPR = atkFlag / atkTotal
	}
	if benTotal > 0 {
		res.BenignFPR = benFlag / benTotal
	}
	return res
}

// Render formats the multiprogramming study.
func (r *SchedResult) Render() string {
	var b strings.Builder
	b.WriteString("deployment — attacker detection under 4-way multiprogramming\n")
	b.WriteString("(trained on isolated traces; deployed with shared caches/predictors)\n\n")
	var rows [][]string
	for prog, frac := range r.PerProgram {
		rows = append(rows, []string{prog, fmt.Sprintf("%.3f", frac)})
	}
	sortRows(rows)
	b.WriteString(table([]string{"program", "flagged fraction"}, rows))
	fmt.Fprintf(&b, "\nattacker-interval TPR: %.3f   benign-interval FPR: %.3f   context switches: %d\n",
		r.AttackerTPR, r.BenignFPR, r.Switches)
	b.WriteString("(per-interval attribution lets the OS isolate the suspicious process, §IV-G)\n")
	return b.String()
}

func sortRows(rows [][]string) {
	for i := 1; i < len(rows); i++ {
		for j := i; j > 0 && rows[j][0] < rows[j-1][0]; j-- {
			rows[j], rows[j-1] = rows[j-1], rows[j]
		}
	}
}
