package perceptron

import (
	"math"
	"math/rand"
	"testing"

	"perspectron/internal/encoding"
)

// randSparse builds an n×f exact-0/1 matrix (k-sparse-ish) with ±1 labels
// weakly separable so training actually updates.
func randSparse(r *rand.Rand, n, f int) (X [][]float64, y []float64) {
	X = make([][]float64, n)
	y = make([]float64, n)
	for i := range X {
		y[i] = float64(2*(i%2) - 1)
		row := make([]float64, f)
		for j := range row {
			if r.Intn(5) == 0 {
				row[j] = 1
			}
			if j%7 == 0 && y[i] > 0 && r.Intn(2) == 0 {
				row[j] = 1
			}
		}
		X[i] = row
	}
	return X, y
}

// oldFit is the dense-float test oracle for Fit: the historical Fit hot
// loop, kept verbatim (minus telemetry and the shuffle journal), where the
// margin check recomputed the full Score dot product after the raw sum. It
// runs on any float rows, 0/1 or scaled; on 0/1 rows Fit must reproduce it
// bit for bit.
func oldFit(p *Perceptron, X [][]float64, y []float64) {
	r := rand.New(rand.NewSource(p.cfg.Seed))
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	epochs := p.cfg.Epochs
	if epochs <= 0 {
		epochs = 1000
	}
	for e := 0; e < epochs; e++ {
		r.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		errs, updates := 0, 0
		for _, i := range idx {
			out := oldRaw(p, X[i])
			pred := 1.0
			if out < 0 {
				pred = -1
			}
			wrong := pred != y[i]
			if wrong {
				errs++
			}
			if wrong || (p.cfg.Margin > 0 && y[i]*oldScore(p, X[i]) < p.cfg.Margin) {
				updates++
				step := 2 * p.cfg.LearningRate * y[i]
				for j, v := range X[i] {
					if v != 0 {
						p.W[j] += step * v
					}
				}
				p.Bias += step
			}
		}
		if updates == 0 {
			break
		}
		if p.cfg.Margin == 0 && float64(errs)/float64(len(X)) < p.cfg.TargetError {
			break
		}
	}
}

// oldRaw is the dense un-normalized dot product w·x + b.
func oldRaw(p *Perceptron, x []float64) float64 {
	s := p.Bias
	for j, v := range x {
		if v != 0 {
			s += p.W[j] * v
		}
	}
	return s
}

// oldScore is the dense two-pass Score: the active-weight magnitude, then
// the raw sum, normalized and clamped to [-1, 1].
func oldScore(p *Perceptron, x []float64) float64 {
	norm := math.Abs(p.Bias)
	for j, v := range x {
		if v != 0 {
			norm += math.Abs(p.W[j] * v)
		}
	}
	if norm == 0 {
		return 0
	}
	s := oldRaw(p, x) / norm
	if s > 1 {
		s = 1
	} else if s < -1 {
		s = -1
	}
	return s
}

func sameWeights(t *testing.T, label string, a, b *Perceptron) {
	t.Helper()
	if a.Bias != b.Bias {
		t.Fatalf("%s: bias %v != %v", label, a.Bias, b.Bias)
	}
	for j := range a.W {
		if a.W[j] != b.W[j] {
			t.Fatalf("%s: W[%d] %v != %v", label, j, a.W[j], b.W[j])
		}
	}
}

// TestFitMarginReuseBitIdentical: the trainer's margin check normalizes the
// raw sum already in hand instead of recomputing the dot product; training
// must stay bit-for-bit equal to the oracle that recomputes it, with and
// without margin training.
func TestFitMarginReuseBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 6; trial++ {
		n, f := 60+r.Intn(100), 20+r.Intn(40)
		X, y := randSparse(r, n, f)
		for _, margin := range []float64{0, 0.3, 0.9} {
			cfg := DefaultConfig()
			cfg.Epochs = 50
			cfg.Margin = margin
			cfg.Seed = int64(trial)
			pNew := New(f, cfg)
			pNew.Fit(encoding.PackRows(X), y)
			pOld := New(f, cfg)
			oldFit(pOld, X, y)
			sameWeights(t, "margin-reuse", pNew, pOld)
		}
	}
}

// TestFitPackedBitIdentical: training on bit-packed rows must reproduce the
// dense oracle's weights exactly, across word boundaries and ragged tails.
func TestFitPackedBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	for trial := 0; trial < 6; trial++ {
		n, f := 60+r.Intn(100), 20+r.Intn(180)
		X, y := randSparse(r, n, f)
		Xp := encoding.PackRows(X)
		for _, margin := range []float64{0, 0.3} {
			cfg := DefaultConfig()
			cfg.Epochs = 50
			cfg.Margin = margin
			cfg.Seed = int64(trial)
			dense := New(f, cfg)
			oldFit(dense, X, y)
			packed := New(f, cfg)
			packed.Fit(Xp, y)
			sameWeights(t, "packed-fit", dense, packed)
		}
	}
}

// TestScorePackedBitIdentical: packed scoring — Score and the production
// scorer encoding.MarginPacked — must match the dense oracle bit for bit on
// random 0/1 inputs.
func TestScorePackedBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	for trial := 0; trial < 20; trial++ {
		f := 10 + r.Intn(200)
		p := New(f, DefaultConfig())
		for j := range p.W {
			p.W[j] = r.NormFloat64()
		}
		p.Bias = r.NormFloat64()
		x := make([]float64, f)
		for j := range x {
			if r.Intn(3) == 0 {
				x[j] = 1
			}
		}
		xp := encoding.Pack(x)
		if got, want := p.Score(xp), oldScore(p, x); got != want {
			t.Fatalf("Score = %v, oracle %v", got, want)
		}
		if got, want := encoding.MarginPacked(p.Bias, p.W, xp), oldScore(p, x); got != want {
			t.Fatalf("MarginPacked = %v, oracle %v", got, want)
		}
	}
}

// TestQuantizedScoreSinglePass: the one-pass packed Quantized.Score must
// match the historical two-pass (norm loop + integer raw loop) output bit
// for bit.
func TestQuantizedScoreSinglePass(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	for trial := 0; trial < 20; trial++ {
		f := 5 + r.Intn(100)
		p := New(f, DefaultConfig())
		for j := range p.W {
			p.W[j] = r.NormFloat64()
		}
		p.Bias = r.NormFloat64()
		q := p.Quantized()
		x := make([]float64, f)
		for j := range x {
			if r.Intn(2) == 0 {
				x[j] = 1
			}
		}
		// historical two-pass reference
		norm := math.Abs(float64(q.Bias))
		raw := q.Bias
		for j, v := range x {
			if v != 0 {
				norm += math.Abs(float64(q.W[j]) * v)
			}
		}
		for j, v := range x {
			if v != 0 {
				raw += int32(q.W[j])
			}
		}
		want := 0.0
		if norm != 0 {
			want = float64(raw) / norm
			if want > 1 {
				want = 1
			} else if want < -1 {
				want = -1
			}
		}
		if got := q.Score(encoding.Pack(x)); got != want {
			t.Fatalf("Quantized.Score = %v, two-pass reference %v", got, want)
		}
	}
}

// TestMultiClassFitPackedBitIdentical pins the packed one-vs-rest bank to
// the dense oracle's one-vs-rest training of each class detector.
func TestMultiClassFitPackedBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	n, f := 90, 40
	X, _ := randSparse(r, n, f)
	labels := make([]string, n)
	names := []string{"benign", "spectre", "meltdown"}
	for i := range labels {
		labels[i] = names[i%len(names)]
	}
	cfg := DefaultConfig()
	cfg.Epochs = 40
	packed := NewMultiClass(names, f, cfg)
	packed.Fit(encoding.PackRows(X), labels)
	dense := NewMultiClass(names, f, cfg)
	y := make([]float64, n)
	for ci, name := range names {
		for i, l := range labels {
			y[i] = -1
			if l == name {
				y[i] = 1
			}
		}
		oldFit(dense.Detectors[ci], X, y)
		sameWeights(t, "multiclass "+name, dense.Detectors[ci], packed.Detectors[ci])
	}
}
