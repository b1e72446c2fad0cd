package perceptron_test

import (
	"testing"

	"perspectron/internal/encoding"
	"perspectron/internal/eval"
	"perspectron/internal/experiments"
	"perspectron/internal/perceptron"
	"perspectron/internal/trace"
)

// scaledPerceptron trains and scores a perceptron on scaled (non-binary)
// rows through the package's dense test oracle — the only perceptron over
// floats the repository keeps.
type scaledPerceptron struct{ p *perceptron.Perceptron }

func (s scaledPerceptron) Fit(X [][]float64, y []float64) { perceptron.OracleFit(s.p, X, y) }
func (s scaledPerceptron) Score(x []float64) float64      { return perceptron.OracleScore(s.p, x) }

// BenchmarkAblationBinarization compares the paper's k-sparse binarized
// inputs against raw scaled inputs on the same selected features, by Table
// III cross-validation accuracy (a design choice from DESIGN.md §5).
func BenchmarkAblationBinarization(b *testing.B) {
	p := experiments.Prepare(experiments.QuickConfig())
	n := len(p.Sel.Indices)
	cfg := eval.CVConfig{Folds: eval.TableIIIFolds(), FeatureIdx: p.Sel.Indices, Threshold: 0.25}
	b.Run("binary", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := eval.CrossValidate(p.DS, func() eval.Model[encoding.BitVec] {
				return perceptron.New(n, perceptron.DefaultConfig())
			}, trace.Bits, cfg)
			b.ReportMetric(res.MeanAccuracy, "accuracy")
		}
	})
	b.Run("scaled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := eval.CrossValidate(p.DS, func() eval.Model[[]float64] {
				return scaledPerceptron{perceptron.New(n, perceptron.DefaultConfig())}
			}, trace.Scaled, cfg)
			b.ReportMetric(res.MeanAccuracy, "accuracy")
		}
	})
}
