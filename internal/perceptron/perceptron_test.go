package perceptron

import (
	"math/rand"
	"testing"
	"testing/quick"

	"perspectron/internal/encoding"
)

// sep builds a linearly separable bit-packed dataset: class +1 iff feature 0
// is set, with noisy irrelevant bits.
func sep(n, f int, r *rand.Rand) (X []encoding.BitVec, y []float64) {
	for i := 0; i < n; i++ {
		row := make([]float64, f)
		cls := -1.0
		if r.Intn(2) == 0 {
			cls = 1
			row[0] = 1
		}
		for j := 1; j < f; j++ {
			if r.Intn(2) == 0 {
				row[j] = 1
			}
		}
		X = append(X, encoding.Pack(row))
		y = append(y, cls)
	}
	return X, y
}

// ones returns an all-set bit vector of width n.
func ones(n int) encoding.BitVec {
	b := encoding.NewBitVec(n)
	for i := 0; i < n; i++ {
		b.Set(i)
	}
	return b
}

func TestLearnsSeparableData(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	X, y := sep(400, 20, r)
	p := New(20, DefaultConfig())
	p.Fit(X, y)
	errs := 0
	for i, x := range X {
		pred := 1.0
		if p.Score(x) < 0 {
			pred = -1
		}
		if pred != y[i] {
			errs++
		}
	}
	if float64(errs)/float64(len(X)) > 0.01 {
		t.Fatalf("training error %d/%d on separable data", errs, len(X))
	}
	if p.W[0] <= 0 {
		t.Fatalf("signal weight %v not positive", p.W[0])
	}
}

func TestScoreBounded(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	X, y := sep(200, 10, r)
	p := New(10, DefaultConfig())
	p.Fit(X, y)
	for _, x := range X {
		s := p.Score(x)
		if s < -1 || s > 1 {
			t.Fatalf("score %v out of range", s)
		}
	}
}

func TestPredictThreshold(t *testing.T) {
	p := New(2, DefaultConfig())
	p.W = []float64{1, -1}
	p.Threshold = 0.25
	flagged := func(row ...float64) bool { return p.Score(encoding.Pack(row)) >= p.Threshold }
	// x = [1,0]: raw = 1, norm = 2, score = 0.5 >= 0.25 -> flagged.
	if !flagged(1, 0) {
		t.Fatalf("strong positive not flagged")
	}
	// x = [0,1]: score = -0.5 -> benign.
	if flagged(0, 1) {
		t.Fatalf("negative flagged")
	}
	// x = [1,1]: raw = 0, score 0 < 0.25 -> benign.
	if flagged(1, 1) {
		t.Fatalf("neutral flagged at threshold 0.25")
	}
}

func TestZeroWeightScore(t *testing.T) {
	p := New(4, DefaultConfig())
	if s := p.Score(ones(4)); s != 0 {
		t.Fatalf("untrained score = %v", s)
	}
}

func TestTopWeights(t *testing.T) {
	p := New(5, DefaultConfig())
	p.W = []float64{0.1, -3, 2, 0, 5}
	pos, neg := p.TopWeights(2)
	if pos[0] != 4 || pos[1] != 2 {
		t.Fatalf("top positive = %v", pos)
	}
	if neg[0] != 1 {
		t.Fatalf("top negative = %v", neg)
	}
}

func TestQuantizedAgreesWithFloat(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	X, y := sep(300, 16, r)
	p := New(16, DefaultConfig())
	p.Fit(X, y)
	q := p.Quantized()
	agree := 0
	for _, x := range X {
		if (p.Score(x) >= p.Threshold) == (q.Score(x) >= q.Threshold) {
			agree++
		}
	}
	if float64(agree)/float64(len(X)) < 0.97 {
		t.Fatalf("quantized agreement %d/%d too low", agree, len(X))
	}
}

func TestQuantizedWeightRange(t *testing.T) {
	p := New(3, DefaultConfig())
	p.W = []float64{1000, -1000, 1}
	q := p.Quantized()
	if q.W[0] != 127 || q.W[1] != -127 {
		t.Fatalf("quantized extremes: %v", q.W)
	}
}

func TestQuantizedZero(t *testing.T) {
	p := New(3, DefaultConfig())
	q := p.Quantized()
	if q.Score(ones(3)) != 0 {
		t.Fatalf("zero perceptron quantized score nonzero")
	}
}

func TestHardwareModel(t *testing.T) {
	h := DefaultHardwareModel()
	if c := h.InferenceCycles(); c < 106 || c > 150 {
		t.Fatalf("inference cycles = %d, want ~110 (paper: order of 100)", c)
	}
	us := h.SamplingIntervalUs()
	if us < 2 || us > 4 {
		t.Fatalf("sampling interval = %v µs, paper reports ~3 µs", us)
	}
	// Paper: 20 sampling intervals within the 61 µs atomic-task window.
	if n := h.SamplesWithin(61); n < 15 || n > 25 {
		t.Fatalf("samples within 61 µs = %d, want ~20", n)
	}
	if !h.FitsInSamplingInterval() {
		t.Fatalf("inference slower than sampling interval")
	}
	if h.WeightStorageBits() != 107*8 {
		t.Fatalf("weight storage = %d bits", h.WeightStorageBits())
	}
}

// Property: training never produces NaN weights and Score stays bounded for
// arbitrary binary data.
func TestQuickTrainingStable(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 20 + r.Intn(50)
		fdim := 2 + r.Intn(20)
		X := make([]encoding.BitVec, n)
		y := make([]float64, n)
		for i := range X {
			row := make([]float64, fdim)
			for j := range row {
				row[j] = float64(r.Intn(2))
			}
			X[i] = encoding.Pack(row)
			y[i] = float64(2*r.Intn(2) - 1)
		}
		cfg := DefaultConfig()
		cfg.Epochs = 50
		p := New(fdim, cfg)
		p.Fit(X, y)
		for _, w := range p.W {
			if w != w { // NaN
				return false
			}
		}
		for _, x := range X {
			s := p.Score(x)
			if s < -1 || s > 1 || s != s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(9))}); err != nil {
		t.Fatal(err)
	}
}
