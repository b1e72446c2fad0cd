package experiments

import (
	"context"
	"fmt"
	"strings"

	"perspectron"
	"perspectron/internal/corpus"
	"perspectron/internal/encoding"
	"perspectron/internal/eval"
	"perspectron/internal/perceptron"
	"perspectron/internal/trace"
)

// Fig5Curve is one ROC curve at a sampling granularity.
type Fig5Curve struct {
	Interval      uint64
	Points        []eval.ROCPoint
	AUC           float64
	BestThreshold float64 // Youden-optimal operating point
}

// Fig5Result regenerates Fig. 5: ROC curves at 10K, 50K and 100K
// instruction sampling granularities. The paper finds 10K best (AUC 0.9949)
// and picks threshold 0.25 as the operating point.
type Fig5Result struct {
	Curves []Fig5Curve
}

// Fig5 collects a dataset per granularity, runs the attack-holdout CV with
// PerSpectron, and pools the per-fold test scores into one ROC per
// granularity. The granularities the store lacks are collected in one
// pass: each program run simulates the longest and the shorter ones ride
// along as nested runs.
func Fig5(cfg Config) *Fig5Result {
	var cfgs []Config
	var collect []trace.CollectConfig
	for _, interval := range []uint64{10_000, 50_000, 100_000} {
		c := cfg
		c.Interval = interval
		if interval > 10_000 {
			// Longer intervals need longer runs for the same sample count.
			c.MaxInsts = cfg.MaxInsts * (interval / 10_000)
		}
		cfgs = append(cfgs, c)
		collect = append(collect, c.CollectConfig())
	}
	corpus.Default().DatasetsCtx(context.Background(), perspectron.TrainingWorkloads(), collect...)

	res := &Fig5Result{}
	for _, c := range cfgs {
		p := Prepare(c)

		cv := eval.CrossValidate(p.DS, func() eval.Model[encoding.BitVec] {
			return perceptron.New(len(p.Sel.Indices), perceptron.DefaultConfig())
		}, trace.Bits, eval.CVConfig{
			Folds:      eval.TableIIIFolds(),
			FeatureIdx: p.Sel.Indices,
			Threshold:  0.25,
		})

		var scores, labels []float64
		for _, f := range cv.Folds {
			scores = append(scores, f.Scores...)
			labels = append(labels, f.Labels...)
		}
		points := eval.ROC(scores, labels)
		curve := Fig5Curve{
			Interval: c.Interval,
			Points:   points,
			AUC:      eval.AUC(points),
		}
		best, bestJ := 0.25, -1.0
		for _, pt := range points {
			if j := pt.TPR - pt.FPR; j > bestJ {
				bestJ = j
				best = pt.Threshold
			}
		}
		curve.BestThreshold = best
		res.Curves = append(res.Curves, curve)
	}
	return res
}

// Render formats the AUC summary and coarse operating points.
func (r *Fig5Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 5 — ROC vs sampling granularity\n\n")
	var rows [][]string
	for _, c := range r.Curves {
		rows = append(rows, []string{
			fmt.Sprintf("%dK", c.Interval/1000),
			fmt.Sprintf("%.4f", c.AUC),
			fmt.Sprintf("%.2f", c.BestThreshold),
			fmt.Sprintf("%.3f", tprAt(c.Points, 0.01)),
			fmt.Sprintf("%.3f", tprAt(c.Points, 0.05)),
			fmt.Sprintf("%.3f", tprAt(c.Points, 0.10)),
		})
	}
	b.WriteString(table([]string{"interval", "AUC", "best thr",
		"TPR@FPR.01", "TPR@FPR.05", "TPR@FPR.10"}, rows))
	b.WriteString("\n(paper: 10K best, AUC 0.9949, threshold 0.25)\n")
	return b.String()
}

func tprAt(points []eval.ROCPoint, fpr float64) float64 {
	best := 0.0
	for _, p := range points {
		if p.FPR <= fpr && p.TPR > best {
			best = p.TPR
		}
	}
	return best
}
