package experiments

import (
	"testing"

	"perspectron/internal/encoding"
	"perspectron/internal/trace"
)

// bitsAtOracle is the counter-indexed binarizer trace.Bits replaced: output
// bit j is set when counter idx[j] (j itself for a nil idx) scaled by m's
// maximum at point reaches the binarization threshold. It reads m in counter
// space, with no projection and no masking.
func bitsAtOracle(m *encoding.Encoding, raw []float64, point int, idx []int) encoding.BitVec {
	n := len(idx)
	if idx == nil {
		n = m.NumFeatures()
	}
	b := encoding.NewBitVec(n)
	for j := 0; j < n; j++ {
		f := j
		if idx != nil {
			f = idx[j]
		}
		if mx := m.Max(f, point); mx > 0 && raw[f]/mx >= encoding.BinarizeThreshold {
			b.Set(j)
		}
	}
	return b
}

// TestBitsMatchesCounterIndexedOracle: trace.Bits (project M once, then
// BitsPacked per row) must produce, word for word, the rows of the
// counter-indexed oracle on the quick corpus — over every feature and over
// the paper's selection, at each sample's own execution point, past the
// last trained point (the global-maxima fallback) and at point -1.
func TestBitsMatchesCounterIndexedOracle(t *testing.T) {
	p := quickPrep()
	points := map[string]func(trace.Sample) int{
		"own":    func(s trace.Sample) int { return s.Index },
		"beyond": func(s trace.Sample) int { return s.Index + p.Enc.NumPoints() + 40 },
		"-1":     func(trace.Sample) int { return -1 },
	}
	for idxName, idx := range map[string][]int{"all": nil, "selection": p.Sel.Indices} {
		for ptName, at := range points {
			ds := &trace.Dataset{Samples: make([]trace.Sample, len(p.DS.Samples))}
			for i, s := range p.DS.Samples {
				s.Index = at(s)
				ds.Samples[i] = s
			}
			X, _ := trace.Bits(p.Enc, ds, idx)
			for i, s := range ds.Samples {
				want := bitsAtOracle(p.Enc, s.Raw, s.Index, idx)
				if len(X[i]) != len(want) {
					t.Fatalf("%s/%s row %d: %d words, oracle %d", idxName, ptName, i, len(X[i]), len(want))
				}
				for w := range want {
					if X[i][w] != want[w] {
						t.Fatalf("%s/%s row %d word %d: %016x, oracle %016x",
							idxName, ptName, i, w, X[i][w], want[w])
					}
				}
			}
		}
	}
}
