package perspectron

import (
	"bytes"
	"testing"
)

// FuzzLoad feeds arbitrary bytes to both checkpoint parsers. Load and
// LoadClassifier must reject what they cannot use with an error, never a
// panic, and a model either accepts must survive what a serving process does
// next: save, reload and score a sample. The seed corpus in
// testdata/fuzz/FuzzLoad holds a saved small test detector (with lineage)
// and a saved small test classifier.
//
//	go test -run '^$' -fuzz '^FuzzLoad$' -fuzztime 20s .
func FuzzLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if d, err := Load(bytes.NewReader(data)); err == nil {
			var buf bytes.Buffer
			if err := d.Save(&buf); err != nil {
				t.Fatalf("saving a loaded detector: %v", err)
			}
			if _, err := Load(&buf); err != nil {
				t.Fatalf("reloading a saved detector: %v", err)
			}
			s := newRawScorer(d, identity(len(d.FeatureNames)), nil, nil)
			for _, point := range []int{0, len(d.PointMax), 1 << 20} {
				s.Detect(fuzzSample(point, len(d.FeatureNames)))
			}
			d.AttributeFired(nil, 3)
		}
		if c, err := LoadClassifier(bytes.NewReader(data)); err == nil {
			var buf bytes.Buffer
			if err := c.Save(&buf); err != nil {
				t.Fatalf("saving a loaded classifier: %v", err)
			}
			if _, err := LoadClassifier(&buf); err != nil {
				t.Fatalf("reloading a saved classifier: %v", err)
			}
			s := newRawScorer(nil, nil, c, identity(len(c.FeatureNames)))
			s.Classify(fuzzSample(0, len(c.FeatureNames)))
		}
	})
}

// identity returns the slot→counter indices 0..n-1.
func identity(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// fuzzSample is an n-counter raw sample at the given execution point with
// every value large enough to fire under any positive maximum.
func fuzzSample(point, n int) RawSample {
	raw := make([]float64, n)
	for i := range raw {
		raw[i] = float64(i+1) * 1e6
	}
	return RawSample{Sample: point, Raw: raw}
}
