package experiments

import (
	"fmt"
	"strings"

	"perspectron/internal/workload/attacks"
)

// Fig4Series is one bandwidth setting's output trajectory.
type Fig4Series struct {
	Factor    float64
	Scores    []float64
	FirstFlag int
	FirstLeak int
	Detected  bool
	PreLeak   bool
}

// Fig4Result regenerates Fig. 4: perceptron output versus instructions for
// SpectreV1 at 1.0x, 0.75x, 0.5x and 0.25x leakage bandwidth (safe filler
// injected before priming and after disclosure, per §VI-A2). The paper's
// claims: the unmodified attack saturates fastest, every reduced-bandwidth
// version still stays above the cutoff after its first complete phase.
type Fig4Result struct {
	Interval  uint64
	Threshold float64
	Series    []Fig4Series
}

// Fig4 trains on the core corpus (full-rate attacks only — no bandwidth
// variant is seen in training) and monitors the reduced-bandwidth variants.
func Fig4(cfg Config) *Fig4Result {
	p := Prepare(cfg)
	sc := trainPerSpectron(p, 0.25)

	res := &Fig4Result{Interval: cfg.Interval, Threshold: sc.threshold}
	factors := []float64{1.0, 0.75, 0.5, 0.25}
	var runs []monitoredRun
	for _, factor := range factors {
		prog := attacks.Bandwidth(attacks.SpectreV1("fr"), factor)
		// Lower bandwidth needs proportionally longer runs to show the
		// same number of attack phases.
		runCfg := cfg
		runCfg.MaxInsts = uint64(float64(cfg.MaxInsts) / factor)
		runs = append(runs, monitoredRun{prog, runCfg, cfg.Seed + 17})
	}
	for i, rec := range recordEach(runs) {
		v := sc.verdict(rec)
		res.Series = append(res.Series, Fig4Series{
			Factor:    factors[i],
			Scores:    v.Scores,
			FirstFlag: v.FirstFlag,
			FirstLeak: v.FirstLeak,
			Detected:  v.Detected,
			PreLeak:   v.PreLeak,
		})
	}
	return res
}

// AllDetected reports whether every bandwidth setting was flagged.
func (r *Fig4Result) AllDetected() bool {
	for _, s := range r.Series {
		if !s.Detected {
			return false
		}
	}
	return true
}

// Render formats one strip chart per bandwidth factor.
func (r *Fig4Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 4 — perceptron output vs instructions, SpectreV1 bandwidths\n")
	fmt.Fprintf(&b, "(sampling every %d instructions; threshold %.2f)\n\n", r.Interval, r.Threshold)
	for _, s := range r.Series {
		fmt.Fprintf(&b, "  %.2fx |%s|", s.Factor, sparkline(s.Scores, -1, 1))
		switch {
		case s.PreLeak:
			fmt.Fprintf(&b, " flagged@%d leak@%d (pre-leak)\n", s.FirstFlag, s.FirstLeak)
		case s.Detected:
			fmt.Fprintf(&b, " flagged@%d leak@%d (post-leak)\n", s.FirstFlag, s.FirstLeak)
		default:
			b.WriteString(" NOT DETECTED\n")
		}
	}
	fmt.Fprintf(&b, "\nall bandwidths detected: %v (paper: yes, down to 0.25x)\n", r.AllDetected())
	return b.String()
}
