package perspectron

import (
	"context"
	"math"
	"testing"
)

// synthDetector builds a tiny hand-weighted detector for exact-math cases.
func synthDetector() *Detector {
	return &Detector{
		FeatureNames: []string{"a", "b", "c", "d"},
		Weights:      []float64{0.5, -0.25, 1.0, -0.125},
		Bias:         0.25,
		Threshold:    0.25,
		Interval:     10_000,
		GlobalMax:    []float64{1, 1, 1, 1},
	}
}

func TestAttributeFiredExactMath(t *testing.T) {
	det := synthDetector()
	// Fired slots 0 and 2 (given unsorted): score must reproduce the
	// MarginPacked ascending sum (0.25 + 0.5 + 1.0) / (0.25 + 0.5 + 1.0).
	score, attr, err := det.AttributeFired([]int{2, 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantNorm := 0.25 + 0.5 + 1.0
	if want := (0.25 + 0.5 + 1.0) / wantNorm; score != want {
		t.Fatalf("score = %v, want %v", score, want)
	}
	if len(attr) != 2 {
		t.Fatalf("attr len = %d, want 2", len(attr))
	}
	// Top contribution is slot 2 (|1.0| > |0.5|).
	if attr[0].Slot != 2 || attr[0].Feature != "c" || attr[0].Weight != 1.0 {
		t.Fatalf("attr[0] = %+v", attr[0])
	}
	if attr[1].Slot != 0 || attr[1].Feature != "a" {
		t.Fatalf("attr[1] = %+v", attr[1])
	}
	if got, want := attr[0].Share, 1.0/wantNorm; got != want {
		t.Fatalf("share = %v, want %v", got, want)
	}
	// Shares plus bias share reconstruct the (unclamped) score exactly for
	// this small sum.
	total := det.Bias / wantNorm
	for _, c := range attr {
		total += c.Share
	}
	if math.Abs(total-score) > 1e-15 {
		t.Fatalf("share sum %v != score %v", total, score)
	}
}

func TestAttributeFiredTopKAndEdgeCases(t *testing.T) {
	det := synthDetector()
	_, attr, err := det.AttributeFired([]int{0, 1, 2, 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(attr) != 2 || attr[0].Slot != 2 || attr[1].Slot != 0 {
		t.Fatalf("top-2 = %+v", attr)
	}
	// Empty fired set: score is bias/|bias| clamped = 1 for positive bias.
	score, attr, err := det.AttributeFired(nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	if score != 1 || len(attr) != 0 {
		t.Fatalf("empty fired: score=%v attr=%v", score, attr)
	}
	if _, _, err := det.AttributeFired([]int{4}, 0); err == nil {
		t.Fatal("out-of-range slot accepted")
	}
	if _, _, err := det.AttributeFired([]int{-1}, 0); err == nil {
		t.Fatal("negative slot accepted")
	}
	if _, _, err := det.AttributeFired([]int{1, 1}, 0); err == nil {
		t.Fatal("duplicate slot accepted")
	}
	// Zero norm (zero bias, no fired) scores 0.
	zero := &Detector{FeatureNames: []string{"a"}, Weights: []float64{1}, GlobalMax: []float64{1}}
	if score, _, err := zero.AttributeFired(nil, 0); err != nil || score != 0 {
		t.Fatalf("zero-norm: score=%v err=%v", score, err)
	}
}

// TestAttributionMatchesScorer pins the tentpole invariant: for a trained
// detector on a real attack stream, AttributeFired over the fired set
// RawScorer.Attribution reports reproduces Detect's score bit-for-bit.
func TestAttributionMatchesScorer(t *testing.T) {
	det := sharedDetector(t)
	scorer, err := NewRawScorer(det, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sess, err := NewSession(ctx, det, nil, SessionConfig{
		Workload: AttackByName("spectreV1", "fr"),
		MaxInsts: 60_000,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	if _, _, err := scorer.Attribution(3); err == nil {
		t.Fatal("attribution before Detect accepted")
	}

	samples := 0
	for {
		rs, ok := sess.NextRaw(ctx)
		if !ok {
			break
		}
		samples++
		score, _, _ := scorer.Detect(rs)
		fired, attr, err := scorer.Attribution(0)
		if err != nil {
			t.Fatal(err)
		}
		reScore, reAttr, err := det.AttributeFired(fired, 0)
		if err != nil {
			t.Fatal(err)
		}
		if reScore != score {
			t.Fatalf("sample %d: AttributeFired score %v != Detect score %v", rs.Sample, reScore, score)
		}
		if len(reAttr) != len(attr) || len(attr) != len(fired) {
			t.Fatalf("sample %d: attr lengths diverge: %d vs %d (fired %d)",
				rs.Sample, len(reAttr), len(attr), len(fired))
		}
		for i := range attr {
			if attr[i] != reAttr[i] {
				t.Fatalf("sample %d: attr[%d] %+v != %+v", rs.Sample, i, attr[i], reAttr[i])
			}
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] <= fired[i-1] {
				t.Fatalf("fired not ascending: %v", fired)
			}
		}
	}
	if samples == 0 {
		t.Fatal("no samples produced")
	}
}

// TestSessionAttributionMatchesVerdict checks a session stream's attribution
// against the dense oracle: the fired set RawScorer.Attribution reports must
// be exactly the dense fired bits, and AttributeFired over it must reproduce
// the dense margin.
func TestSessionAttributionMatchesVerdict(t *testing.T) {
	det := sharedDetector(t)
	ctx := context.Background()
	sess, err := NewSession(ctx, det, nil, SessionConfig{
		Workload: AttackByName("spectreV1", "fr"),
		MaxInsts: 60_000,
		Seed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	scorer, err := NewRawScorer(det, nil)
	if err != nil {
		t.Fatal(err)
	}

	n := 0
	for {
		rs, ok := sess.NextRaw(ctx)
		if !ok {
			break
		}
		n++
		dense, _ := denseFired(det.encoding(), rs.Raw, scorer.detIdx, rs.Sample)
		var want []int
		for slot, f := range dense {
			if f {
				want = append(want, slot)
			}
		}
		scorer.Detect(rs)
		fired, attr, err := scorer.Attribution(0)
		if err != nil {
			t.Fatal(err)
		}
		if len(fired) != len(want) {
			t.Fatalf("sample %d: fired %v, dense oracle %v", rs.Sample, fired, want)
		}
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("sample %d: fired %v, dense oracle %v", rs.Sample, fired, want)
			}
		}
		score, _, err := det.AttributeFired(fired, 0)
		if err != nil {
			t.Fatal(err)
		}
		if wantScore := denseMargin(det.Bias, det.Weights, dense); score != wantScore {
			t.Fatalf("sample %d: attribution score %v != dense score %v", rs.Sample, score, wantScore)
		}
		if len(attr) != len(fired) {
			t.Fatalf("attr/fired length mismatch: %d vs %d", len(attr), len(fired))
		}
	}
	if n == 0 {
		t.Fatal("no samples produced")
	}
}
