package features

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"perspectron/internal/encoding"
	"perspectron/internal/stats"
)

// randBinary builds an n×f matrix of exact 0/1 values with ±1 labels, with
// a few duplicated/inverted columns so correlation groups actually form.
func randBinary(r *rand.Rand, n, f int) (X [][]float64, y []float64) {
	X = make([][]float64, n)
	y = make([]float64, n)
	for i := range X {
		y[i] = float64(2*(i%2) - 1)
		row := make([]float64, f)
		for j := range row {
			switch {
			case j >= 3 && j < 6: // duplicates of column 0
				row[j] = 0
			case j == 6: // constant-zero column (zero variance)
				row[j] = 0
			default:
				if r.Intn(3) == 0 {
					row[j] = 1
				}
				if j == 1 && y[i] > 0 && r.Intn(2) == 0 {
					row[j] = 1 // class-informative column
				}
			}
		}
		for j := 3; j < 6 && j < f; j++ {
			row[j] = row[0]
		}
		X[i] = row
	}
	return X, y
}

// denseMIRef is the historical dense MutualInformation row loop, kept
// verbatim as the bit-identity reference for the popcount rewrite.
func denseMIRef(X [][]float64, y []float64) []float64 {
	n := len(X)
	if n == 0 {
		return nil
	}
	f := len(X[0])
	out := make([]float64, f)
	var nPos float64
	for _, v := range y {
		if v > 0 {
			nPos++
		}
	}
	pY1 := nPos / float64(n)
	for j := 0; j < f; j++ {
		var c11, c10, c01, c00 float64
		for i, row := range X {
			x1 := row[j] >= encoding.BinarizeThreshold
			y1 := y[i] > 0
			switch {
			case x1 && y1:
				c11++
			case x1 && !y1:
				c10++
			case !x1 && y1:
				c01++
			default:
				c00++
			}
		}
		pX1 := (c11 + c10) / float64(n)
		mi := 0.0
		add := func(c, px, py float64) {
			if c == 0 || px == 0 || py == 0 {
				return
			}
			p := c / float64(n)
			mi += p * math.Log2(p/(px*py))
		}
		add(c11, pX1, pY1)
		add(c10, pX1, 1-pY1)
		add(c01, 1-pX1, pY1)
		add(c00, 1-pX1, 1-pY1)
		out[j] = mi
	}
	return out
}

// TestMutualInformationPackedBitIdentical: the popcount MI must equal the
// historical dense loop bit for bit — on binary matrices and on continuous
// ones (MI binarizes internally, so the packed path always applies).
func TestMutualInformationPackedBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n, f := 30+r.Intn(100), 5+r.Intn(40)
		var X [][]float64
		var y []float64
		if trial%2 == 0 {
			X, y = randBinary(r, n, f)
		} else {
			X = make([][]float64, n)
			y = make([]float64, n)
			for i := range X {
				y[i] = float64(2*(i%2) - 1)
				row := make([]float64, f)
				for j := range row {
					row[j] = r.Float64()
				}
				X[i] = row
			}
		}
		got := ctxMutualInformation(X, y)
		want := denseMIRef(X, y)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("trial %d: MI[%d] = %v, dense reference %v", trial, j, got[j], want[j])
			}
		}
	}
}

// TestCorrelationGroupsPackedMatchesDense: on 0/1 input the context's
// pruned sweep over centered columns must produce the same partition,
// ranking, and ordering as the per-pair dense oracle.
func TestCorrelationGroupsPackedMatchesDense(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for trial := 0; trial < 10; trial++ {
		X, y := randBinary(r, 60+r.Intn(100), 8+r.Intn(16))
		got := ctxCorrelationGroups(X, y, 0.98)
		want := legacyCorrelationGroups(X, y, 0.98)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: context groups %v != oracle groups %v", trial, got, want)
		}
	}
}

// TestSelectionWorkerCountInvariant: the full Select outcome must not
// depend on GOMAXPROCS (the selection kernels' worker count), on binary or
// continuous input.
func TestSelectionWorkerCountInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	comps := func(f int) []stats.Component {
		out := make([]stats.Component, f)
		for j := range out {
			out[j] = stats.Component(j % int(stats.NumComponents))
		}
		return out
	}
	cfg := SelectConfig{GroupThreshold: 0.98, MaxFeatures: 10, MinMI: 1e-4}
	for trial := 0; trial < 6; trial++ {
		n, f := 80, 24
		var X [][]float64
		var y []float64
		if trial%2 == 0 {
			X, y = randBinary(r, n, f)
		} else {
			X = make([][]float64, n)
			y = make([]float64, n)
			for i := range X {
				y[i] = float64(2*(i%2) - 1)
				row := make([]float64, f)
				for j := range row {
					row[j] = r.Float64()
					if j%3 == 0 && y[i] > 0 {
						row[j] += 0.4
					}
				}
				X[i] = row
			}
		}
		var got []Selection
		for _, procs := range []int{1, 2, 7} {
			prev := runtime.GOMAXPROCS(procs)
			got = append(got, Select(context.Background(), X, y, comps(f), cfg))
			runtime.GOMAXPROCS(prev)
		}
		for i := 1; i < len(got); i++ {
			if !reflect.DeepEqual(got[0], got[i]) {
				t.Fatalf("trial %d: selection differs between worker counts: %v vs %v",
					trial, got[0].Indices, got[i].Indices)
			}
		}
	}
}
