package perceptron

import (
	"math/rand"
	"testing"

	"perspectron/internal/encoding"
)

// redundantData builds samples where the positive class sets many redundant
// signal bits (like replicated microarchitectural features), so random
// subsets all carry signal.
func redundantData(n, f int, r *rand.Rand) (X []encoding.BitVec, y []float64) {
	for i := 0; i < n; i++ {
		cls := -1.0
		row := make([]float64, f)
		sig := r.Intn(2) == 0
		if sig {
			cls = 1
		}
		for j := 0; j < f; j++ {
			if j%2 == 0 {
				if sig {
					row[j] = 1 // replicated signal spread across the space
				}
			} else {
				row[j] = float64(r.Intn(2)) // noise
			}
		}
		X = append(X, encoding.Pack(row))
		y = append(y, cls)
	}
	return X, y
}

func newRHMD(t *testing.T) (*RHMD, []encoding.BitVec, []float64) {
	t.Helper()
	r := rand.New(rand.NewSource(1))
	X, y := redundantData(400, 40, r)
	e := NewRHMD(4, 40, 20, DefaultConfig(), r)
	e.Fit(X, y)
	return e, X, y
}

func TestRHMDLearns(t *testing.T) {
	e, X, y := newRHMD(t)
	errs := 0
	for i, x := range X {
		pred := -1.0
		if e.Score(x) >= 0 {
			pred = 1
		}
		if pred != y[i] {
			errs++
		}
	}
	if float64(errs)/float64(len(X)) > 0.05 {
		t.Fatalf("RHMD error rate %d/%d", errs, len(X))
	}
}

func TestRHMDSubsetsDiffer(t *testing.T) {
	e, _, _ := newRHMD(t)
	same := 0
	for i := range e.Subsets[0] {
		if e.Subsets[0][i] == e.Subsets[1][i] {
			same++
		}
	}
	if same == len(e.Subsets[0]) {
		t.Fatalf("detector subsets identical")
	}
}

func TestRHMDStochasticSelection(t *testing.T) {
	e, _, _ := newRHMD(t)
	// The internal selector must actually rotate across detectors.
	picked := map[int]bool{}
	for i := 0; i < 100; i++ {
		picked[e.pick()] = true
	}
	if len(picked) < len(e.Detectors) {
		t.Fatalf("selector used only %d of %d detectors", len(picked), len(e.Detectors))
	}
}

func TestRHMDResistsSingleDetectorEvasion(t *testing.T) {
	e, X, y := newRHMD(t)
	// White-box evasion of detector 0: the modified sample must fool
	// detector 0 but not the majority of the others.
	evaded, caught := 0, 0
	for i, x := range X {
		if y[i] != 1 {
			continue
		}
		adv := e.EvadeOne(0, x)
		if e.ScoreWith(0, adv) < e.Threshold {
			evaded++
		}
		for d := 1; d < len(e.Detectors); d++ {
			if e.ScoreWith(d, adv) >= e.Threshold {
				caught++
				break
			}
		}
	}
	if evaded == 0 {
		t.Fatalf("white-box evasion failed against its own target — test invalid")
	}
	if caught == 0 {
		t.Fatalf("no evaded sample was caught by the remaining detectors")
	}
}

func TestRHMDSubsetCap(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	e := NewRHMD(2, 10, 99, DefaultConfig(), r)
	if len(e.Subsets[0]) != 5 {
		t.Fatalf("subset size not capped to n/k: %d", len(e.Subsets[0]))
	}
}

func TestRHMDSubsetsDisjoint(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	e := NewRHMD(4, 40, 10, DefaultConfig(), r)
	seen := map[int]bool{}
	for _, sub := range e.Subsets {
		for _, j := range sub {
			if seen[j] {
				t.Fatalf("feature %d appears in two partitions", j)
			}
			seen[j] = true
		}
	}
}
