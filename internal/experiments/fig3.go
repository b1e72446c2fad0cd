package experiments

import (
	"fmt"
	"strings"

	"perspectron/internal/encoding"
	"perspectron/internal/perceptron"
	"perspectron/internal/trace"
	"perspectron/internal/workload/attacks"
)

// Fig3Series is one polymorphic variant's perceptron output over time.
type Fig3Series struct {
	Variant   string
	Scores    []float64 // pre-threshold output per sampling interval
	FirstFlag int
	Detected  bool
}

// Fig3Result regenerates Fig. 3: perceptron output versus instructions for
// the 12 polymorphic Spectre variants of §VI-A1, none of which appeared in
// feature selection or training. The paper's claim: all variants are
// flagged, at the same sampling interval.
type Fig3Result struct {
	Interval  uint64
	Threshold float64
	Series    []Fig3Series
}

// trainPerSpectron trains the detector on the base corpus and returns a
// scorer (shared by Fig3/Fig4).
func trainPerSpectron(p *Prepared, threshold float64) *modelScorer[encoding.BitVec] {
	X, y := trace.Bits(p.Enc, p.DS, p.Sel.Indices)
	det := perceptron.New(len(p.Sel.Indices), perceptron.DefaultConfig())
	det.Fit(X, y)
	return &modelScorer[encoding.BitVec]{enc: p.Enc, idx: p.Sel.Indices, encode: trace.Bits,
		clf: det, threshold: threshold}
}

// polymorphicRuns are the 12 polymorphic variants' monitored runs, shared
// by Fig. 3 and Table IV's evasion suite.
func polymorphicRuns(cfg Config) []monitoredRun {
	var runs []monitoredRun
	for i, prog := range attacks.AllPolymorphic("fr") {
		runs = append(runs, monitoredRun{prog, cfg, cfg.Seed + int64(i)*101})
	}
	return runs
}

// Fig3 trains PerSpectron on the core corpus (which contains no polymorphic
// variants) and monitors each variant.
func Fig3(cfg Config) *Fig3Result {
	p := Prepare(cfg)
	sc := trainPerSpectron(p, 0.25)

	res := &Fig3Result{Interval: cfg.Interval, Threshold: sc.threshold}
	for _, rec := range recordEach(polymorphicRuns(cfg)) {
		v := sc.verdict(rec)
		res.Series = append(res.Series, Fig3Series{
			Variant:   strings.TrimPrefix(v.Name, "spectreV1-poly-"),
			Scores:    v.Scores,
			FirstFlag: v.FirstFlag,
			Detected:  v.Detected,
		})
	}
	return res
}

// AllDetected reports the paper's headline claim for this figure.
func (r *Fig3Result) AllDetected() bool {
	for _, s := range r.Series {
		if !s.Detected {
			return false
		}
	}
	return true
}

// Render formats one strip chart per variant.
func (r *Fig3Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 3 — perceptron output vs instructions, 12 polymorphic Spectre variants\n")
	fmt.Fprintf(&b, "(sampling every %d instructions; threshold %.2f; '%s' marks the flag point)\n\n",
		r.Interval, r.Threshold, "^")
	for _, s := range r.Series {
		fmt.Fprintf(&b, "  %-24s |%s|", s.Variant, sparkline(s.Scores, -1, 1))
		if s.Detected {
			fmt.Fprintf(&b, " flagged@sample %d\n", s.FirstFlag)
		} else {
			b.WriteString(" NOT DETECTED\n")
		}
	}
	fmt.Fprintf(&b, "\nall 12 variants detected: %v (paper: yes, at the same sampling interval)\n",
		r.AllDetected())
	return b.String()
}
