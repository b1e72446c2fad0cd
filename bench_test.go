// Micro-benchmarks of the simulator and detector datapath, the hot-path
// kernel benchmarks, and the ablation benchmarks for the design choices
// DESIGN.md calls out (their accuracies are attached via ReportMetric). The
// paper's tables and figures are regenerated by cmd/experiments and checked
// by internal/experiments' tests and quick.golden, not benchmarked here.
package perspectron_test

import (
	"math/rand"
	"sync"
	"testing"

	"perspectron"
	"perspectron/internal/encoding"
	"perspectron/internal/eval"
	"perspectron/internal/experiments"
	"perspectron/internal/isa"
	"perspectron/internal/perceptron"
	"perspectron/internal/sim"
	"perspectron/internal/stats"
	"perspectron/internal/trace"
	"perspectron/internal/workload/attacks"
	"perspectron/internal/workload/benign"
)

// ---- shared fixtures -------------------------------------------------------

var (
	prepOnce sync.Once
	prepped  *experiments.Prepared
)

func benchPrep() *experiments.Prepared {
	prepOnce.Do(func() { prepped = experiments.Prepare(experiments.QuickConfig()) })
	return prepped
}

// ---- simulator micro-benchmarks ---------------------------------------------

// BenchmarkSimulatorStream mirrors the benchmark's sim probe: each op is one
// 500K-instruction RunStream on a fresh machine over one serve stream,
// sampled every 10K instructions, reporting simulated instructions per host
// second and the allocation cost of the run.
func BenchmarkSimulatorStream(b *testing.B) {
	const insts, interval = 500_000, 10_000
	streams := []perspectron.Workload{
		attacks.SpectreV1("fr"), attacks.FlushReload(), benign.Gcc(), benign.Mcf(),
	}
	for _, w := range streams {
		b.Run(w.Info().Name, func(b *testing.B) {
			b.ReportAllocs()
			var done uint64
			for i := 0; i < b.N; i++ {
				m := sim.NewMachine()
				n := m.RunStream(w.Stream(rand.New(rand.NewSource(1))), insts, interval,
					func(int, []float64) bool { return true })
				done += min(uint64(n)*interval, insts)
			}
			b.ReportMetric(float64(done)/b.Elapsed().Seconds(), "insts/s")
		})
	}
}

func BenchmarkPerceptronInference(b *testing.B) {
	p := perceptron.New(106, perceptron.DefaultConfig())
	r := rand.New(rand.NewSource(1))
	for j := range p.W {
		p.W[j] = r.Float64()*2 - 1
	}
	x := encoding.NewBitVec(106)
	for j := 0; j < 106; j++ {
		if r.Intn(2) == 1 {
			x.Set(j)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Score(x)
	}
}

func BenchmarkQuantizedInference(b *testing.B) {
	p := perceptron.New(106, perceptron.DefaultConfig())
	r := rand.New(rand.NewSource(1))
	for j := range p.W {
		p.W[j] = r.Float64()*2 - 1
	}
	q := p.Quantized()
	x := encoding.NewBitVec(106)
	for j := 0; j < 106; j++ {
		if r.Intn(2) == 1 {
			x.Set(j)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = q.Score(x)
	}
}

// ---- hot-path kernel benchmarks (BENCH_hotpath.json) ------------------------
//
// BenchmarkSelect lives in internal/features, next to its serial oracle.

// BenchmarkFit times perceptron training over the bit-packed rows of the
// selected features (set-bit iteration only).
func BenchmarkFit(b *testing.B) {
	p := benchPrep()
	X, y := trace.Bits(p.Enc, p.DS, p.Sel.Indices)
	b.Run("packed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			det := perceptron.New(len(p.Sel.Indices), perceptron.DefaultConfig())
			det.Fit(X, y)
		}
	})
}

// BenchmarkCrossValidate times the Table III fold loop over the selected
// features with the binarized perceptron.
func BenchmarkCrossValidate(b *testing.B) {
	p := benchPrep()
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := eval.CrossValidate(p.DS, func() eval.Model[encoding.BitVec] {
				return perceptron.New(len(p.Sel.Indices), perceptron.DefaultConfig())
			}, trace.Bits, eval.CVConfig{
				Folds:      eval.TableIIIFolds(),
				FeatureIdx: p.Sel.Indices,
				Threshold:  0.25,
			})
			b.ReportMetric(res.MeanAccuracy, "accuracy")
		}
	})
}

func BenchmarkEndToEndMonitor(b *testing.B) {
	opts := perspectron.DefaultOptions()
	opts.MaxInsts = 100_000
	opts.Runs = 1
	det, err := perspectron.Train(perspectron.TrainingWorkloads(), opts)
	if err != nil {
		b.Fatal(err)
	}
	attack := perspectron.AttackByName("flush+reload", "")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := det.Monitor(attack, 50_000, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Detected {
			b.Fatal("missed")
		}
	}
}

// BenchmarkMonitorTelemetryOverhead prices the online serving loop with its
// always-on instrumentation: Detector.Monitor recording its score and
// latency histograms, sample counters and monitor span into the process
// registry.
func BenchmarkMonitorTelemetryOverhead(b *testing.B) {
	opts := perspectron.DefaultOptions()
	opts.MaxInsts = 100_000
	opts.Runs = 1
	det, err := perspectron.Train(perspectron.TrainingWorkloads(), opts)
	if err != nil {
		b.Fatal(err)
	}
	attack := perspectron.AttackByName("flush+reload", "")
	// One sub-benchmark, so the detector is trained once rather than once
	// per b.N round.
	b.Run("monitor", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rep, err := det.Monitor(attack, 50_000, int64(i))
			if err != nil {
				b.Fatal(err)
			}
			if !rep.Detected {
				b.Fatal("missed")
			}
		}
	})
}

// ---- ablation benchmarks (design choices from DESIGN.md §5) -----------------

// ablationCV runs the Table III CV of a perceptron over the bit-packed
// k-sparse inputs of the given features, encoded per fold by encode, and
// reports the mean accuracy. The binarization ablation lives in
// internal/perceptron, next to the dense oracle its scaled arm needs.
func ablationCV(b *testing.B, idx []int, encode func(*encoding.Encoding, *trace.Dataset, []int) ([]encoding.BitVec, []float64),
	mk func(n int) eval.Model[encoding.BitVec]) {
	p := benchPrep()
	n := len(idx)
	if idx == nil {
		n = p.DS.NumFeatures()
	}
	for i := 0; i < b.N; i++ {
		res := eval.CrossValidate(p.DS, func() eval.Model[encoding.BitVec] { return mk(n) }, encode,
			eval.CVConfig{
				Folds:      eval.TableIIIFolds(),
				FeatureIdx: idx,
				Threshold:  0.25,
			})
		b.ReportMetric(res.MeanAccuracy, "accuracy")
	}
}

func newPerceptron(n int) eval.Model[encoding.BitVec] {
	return perceptron.New(n, perceptron.DefaultConfig())
}

// BenchmarkAblationReplication compares the cross-component replicated
// selection against a commit-stage-only feature set of the same size.
func BenchmarkAblationReplication(b *testing.B) {
	p := benchPrep()
	var commitOnly []int
	for j, c := range p.DS.Components {
		if c == stats.CompCommit && len(commitOnly) < len(p.Sel.Indices) {
			commitOnly = append(commitOnly, j)
		}
	}
	b.Run("replicated", func(b *testing.B) { ablationCV(b, p.Sel.Indices, trace.Bits, newPerceptron) })
	b.Run("commit-only", func(b *testing.B) { ablationCV(b, commitOnly, trace.Bits, newPerceptron) })
	b.Run("replicated-bank", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := eval.CrossValidate(p.DS, func() eval.Model[encoding.BitVec] {
				return newReplicatedBank(
					seqIndices(len(p.Sel.Indices)),
					projectComponents(p.DS.Components, p.Sel.Indices),
					perceptron.DefaultConfig())
			}, trace.Bits, eval.CVConfig{
				Folds:      eval.TableIIIFolds(),
				FeatureIdx: p.Sel.Indices,
				Threshold:  0.25,
			})
			b.ReportMetric(res.MeanAccuracy, "accuracy")
		}
	})
}

func seqIndices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func projectComponents(comps []stats.Component, idx []int) []stats.Component {
	out := make([]stats.Component, len(idx))
	for i, j := range idx {
		out[i] = comps[j]
	}
	return out
}

// BenchmarkAblationSelection compares the paper's greedy per-component
// selection against a naive global top-106 by mutual information.
func BenchmarkAblationSelection(b *testing.B) {
	p := benchPrep()
	top := topK(p.Sel.MI, len(p.Sel.Indices))
	b.Run("per-component-greedy", func(b *testing.B) { ablationCV(b, p.Sel.Indices, trace.Bits, newPerceptron) })
	b.Run("global-top-mi", func(b *testing.B) { ablationCV(b, top, trace.Bits, newPerceptron) })
}

func topK(vals []float64, k int) []int {
	idx := seqIndices(len(vals))
	for i := 0; i < k && i < len(idx); i++ {
		best := i
		for j := i + 1; j < len(idx); j++ {
			if vals[idx[j]] > vals[idx[best]] {
				best = j
			}
		}
		idx[i], idx[best] = idx[best], idx[i]
	}
	return idx[:k]
}

// BenchmarkAblationMargin compares θ-style margin training (see DESIGN.md
// §6) against the classic error-driven perceptron rule.
func BenchmarkAblationMargin(b *testing.B) {
	p := benchPrep()
	withMargin := func(m float64) func(n int) eval.Model[encoding.BitVec] {
		return func(n int) eval.Model[encoding.BitVec] {
			cfg := perceptron.DefaultConfig()
			cfg.Margin = m
			return perceptron.New(n, cfg)
		}
	}
	b.Run("margin-0.3", func(b *testing.B) { ablationCV(b, p.Sel.Indices, trace.Bits, withMargin(0.3)) })
	b.Run("no-margin", func(b *testing.B) { ablationCV(b, p.Sel.Indices, trace.Bits, withMargin(0)) })
}

// BenchmarkAblationNormalization compares per-execution-point maxima (the
// paper's matrix M) against corpus-global per-counter maxima: the
// global-max arm encodes each fold over M without its per-point columns, so
// Max falls back to the global column.
func BenchmarkAblationNormalization(b *testing.B) {
	p := benchPrep()
	globalMax := func(m *encoding.Encoding, d *trace.Dataset, idx []int) ([]encoding.BitVec, []float64) {
		return trace.Bits(&encoding.Encoding{GlobalMax: m.GlobalMax}, d, idx)
	}
	b.Run("per-point", func(b *testing.B) { ablationCV(b, p.Sel.Indices, trace.Bits, newPerceptron) })
	b.Run("global-max", func(b *testing.B) { ablationCV(b, p.Sel.Indices, globalMax, newPerceptron) })
}

// BenchmarkSerialAdderScaling reports the hardware model's inference cycle
// count as the feature budget grows (the §IV-F latency argument).
func BenchmarkSerialAdderScaling(b *testing.B) {
	for _, n := range []int{53, 106, 212, 424} {
		h := perceptron.DefaultHardwareModel()
		h.NumFeatures = n
		b.Run(itob(n), func(b *testing.B) {
			var cycles int
			for i := 0; i < b.N; i++ {
				cycles = h.InferenceCycles()
			}
			b.ReportMetric(float64(cycles), "cycles")
			b.ReportMetric(h.InferenceTimeNs(), "ns")
		})
	}
}

func itob(n int) string {
	if n == 0 {
		return "0"
	}
	var buf []byte
	for n > 0 {
		buf = append([]byte{byte('0' + n%10)}, buf...)
		n /= 10
	}
	return string(buf)
}

// BenchmarkPipelineStep measures the raw pipeline step rate on plain ops.
func BenchmarkPipelineStep(b *testing.B) {
	m := sim.NewMachine()
	ops := make([]isa.Op, 0, 1024)
	for i := 0; i < 1024; i++ {
		ops = append(ops, isa.Op{Kind: isa.KindPlain, Class: isa.IntAlu,
			PC: 0x400000 + uint64(i)*4})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := ops[i%len(ops)]
		m.Pipe.Step(&op)
	}
}
