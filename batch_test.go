package perspectron

import (
	"context"
	"math"
	"testing"

	"perspectron/internal/encoding"
	"perspectron/internal/sim"
)

// denseFired is the dense test oracle for the packed scorer's bit-packing:
// the fired-bit set of one raw sample under enc, with unresolved slots and
// non-finite values masked, and the number of observable slots.
func denseFired(enc *encoding.Encoding, raw []float64, idx []int, point int) (fired []bool, avail int) {
	fired = make([]bool, len(idx))
	for slot, j := range idx {
		if j < 0 || j >= len(raw) || math.IsNaN(raw[j]) || math.IsInf(raw[j], 0) {
			continue
		}
		avail++
		if mx := enc.Max(slot, point); mx > 0 && raw[j]/mx >= encoding.BinarizeThreshold {
			fired[slot] = true
		}
	}
	return fired, avail
}

// denseMargin is the dense test oracle for MarginPacked: the renormalized
// perceptron output over the fired bits, clamped to [-1, 1].
func denseMargin(bias float64, w []float64, fired []bool) float64 {
	s, norm := bias, math.Abs(bias)
	for i, f := range fired {
		if f {
			s += w[i]
			norm += math.Abs(w[i])
		}
	}
	if norm == 0 {
		return 0
	}
	return math.Max(-1, math.Min(1, s/norm))
}

// TestRawScorerMatchesSession pins the packed scorer to the dense oracle bit
// for bit on a real session stream: every raw sample NextRaw delivers must
// score, flag, classify and report coverage exactly as the dense
// fired-bits + margin math does over the same resolved indices, including
// under injected faults (NaN sentinels through the packed kernels).
func TestRawScorerMatchesSession(t *testing.T) {
	det := sharedDetector(t)
	cls := sharedClassifier(t)
	detIdx, clsIdx, err := resolveModels(sim.NewMachine(sim.DefaultConfig()).Reg, det, cls)
	if err != nil {
		t.Fatal(err)
	}
	for _, faults := range []*FaultConfig{nil, {Seed: 3, Dropout: 0.3}} {
		ctx := context.Background()
		sess, err := NewSession(ctx, det, cls, SessionConfig{
			Workload: AttackByName("spectreV1", "fr"),
			MaxInsts: 60_000,
			Seed:     11,
			Faults:   faults,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		scorer, err := NewRawScorer(det, cls)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for {
			rs, ok := sess.NextRaw(ctx)
			if !ok {
				break
			}
			fired, avail := denseFired(det.encoding(), rs.Raw, detIdx, rs.Sample)
			want := denseMargin(det.Bias, det.Weights, fired)
			wantCov := float64(avail) / float64(len(det.FeatureNames))
			score, flagged, coverage := scorer.Detect(rs)
			if score != want || flagged != (want >= det.Threshold) || coverage != wantCov {
				t.Fatalf("faults=%v sample %d: packed (score=%v flagged=%v cov=%v) != dense (%v %v %v)",
					faults, n, score, flagged, coverage, want, want >= det.Threshold, wantCov)
			}

			clsFired, _ := denseFired(cls.encoding(), rs.Raw, clsIdx, -1)
			best, bestScore := 0, math.Inf(-1)
			for ci := range cls.Classes {
				if s := denseMargin(cls.Biases[ci], cls.Weights[ci], clsFired); s > bestScore {
					best, bestScore = ci, s
				}
			}
			class, clsScore, _ := scorer.Classify(rs)
			if class != cls.Classes[best] || clsScore != bestScore {
				t.Fatalf("faults=%v sample %d: packed class (%s %v) != dense (%s %v)",
					faults, n, class, clsScore, cls.Classes[best], bestScore)
			}
			n++
		}
		if err := sess.Err(); err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Fatalf("faults=%v: no samples compared", faults)
		}
	}
}

func TestRawScorerNilModels(t *testing.T) {
	if _, err := NewRawScorer(nil, nil); err == nil {
		t.Fatalf("model-less raw scorer accepted")
	}
	det := sharedDetector(t)
	r, err := NewRawScorer(det, nil)
	if err != nil {
		t.Fatal(err)
	}
	if class, score, cov := r.Classify(RawSample{}); class != "" || score != 0 || cov != 0 {
		t.Fatalf("classifier-less Classify = (%q, %v, %v), want zeros", class, score, cov)
	}
	// A fully faulted sample degrades to the bare bias sign at coverage 0
	// (the same total-blackout margin the dense path produces) instead of
	// panicking or flagging.
	raw := make([]float64, 512)
	for i := range raw {
		raw[i] = math.NaN()
	}
	score, flagged, cov := r.Detect(RawSample{Raw: raw})
	if cov != 0 || flagged || math.IsNaN(score) {
		t.Fatalf("all-NaN Detect = (%v, %v, %v), want finite unflagged score at coverage 0", score, flagged, cov)
	}
}
