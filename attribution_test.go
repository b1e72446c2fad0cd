package perspectron

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"perspectron/internal/encoding"
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

// stableSortAttribution is the reference AttributeFired: build every
// contribution, stable-sort them all by |Weight| descending (slot
// ascending on ties) and truncate to k. It is the oracle the top-k
// insertion must reproduce exactly.
func stableSortAttribution(d *Detector, fired []int, k int) (score float64, attr []Contribution, err error) {
	slots := make([]int, len(fired))
	copy(slots, fired)
	sort.Ints(slots)
	for i, slot := range slots {
		if slot < 0 || slot >= len(d.Weights) {
			return 0, nil, fmt.Errorf("perspectron: fired slot %d outside model width %d", slot, len(d.Weights))
		}
		if i > 0 && slots[i-1] == slot {
			return 0, nil, fmt.Errorf("perspectron: fired slot %d duplicated", slot)
		}
	}
	bits := encoding.NewBitVec(len(d.Weights))
	norm := math.Abs(d.Bias)
	for _, slot := range slots {
		bits.Set(slot)
		norm += math.Abs(d.Weights[slot])
	}
	score = encoding.MarginPacked(d.Bias, d.Weights, bits)
	attr = make([]Contribution, len(slots))
	for i, slot := range slots {
		c := Contribution{Slot: slot, Weight: d.Weights[slot]}
		if slot < len(d.FeatureNames) {
			c.Feature = d.FeatureNames[slot]
		}
		if norm != 0 {
			c.Share = c.Weight / norm
		}
		attr[i] = c
	}
	sort.SliceStable(attr, func(i, j int) bool {
		ai, aj := math.Abs(attr[i].Weight), math.Abs(attr[j].Weight)
		if ai != aj {
			return ai > aj
		}
		return attr[i].Slot < attr[j].Slot
	})
	if k > 0 && k < len(attr) {
		attr = attr[:k]
	}
	return score, attr, nil
}

// TestTopContributionsMatchesStableSortOracle checks the top-k insertion
// behind AttributeFired and RawScorer.Attribution against the stable-sort
// oracle on random detectors whose weights are drawn from a small pool of
// magnitudes with random signs, so equal |Weight| ties — including equal
// magnitudes of opposite sign — are common. Fired sets come both ascending
// and shuffled, and k covers 0, 1, 5 and len-1, len, len+1.
func TestTopContributionsMatchesStableSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	mags := []float64{0, 0.125, 0.25, 0.5, 0.75, 1, 1.5}
	for trial := 0; trial < 300; trial++ {
		width := 1 + rng.Intn(150)
		det := &Detector{Bias: (rng.Float64() - 0.5) * 2, Weights: make([]float64, width)}
		for i := range det.Weights {
			w := mags[rng.Intn(len(mags))]
			if trial%3 != 0 {
				w += float64(rng.Intn(3)) * 1e-3 // a few near-ties next to exact ones
			}
			if rng.Intn(2) == 0 {
				w = -w
			}
			det.Weights[i] = w
		}
		// Names cover a prefix only, so the nameless-slot path runs too.
		for i := 0; i < width-rng.Intn(3) && i < width; i++ {
			det.FeatureNames = append(det.FeatureNames, fmt.Sprintf("f%d", i))
		}
		var fired []int
		for slot := 0; slot < width; slot++ {
			if rng.Intn(3) == 0 {
				fired = append(fired, slot)
			}
		}
		if trial%2 == 1 {
			rng.Shuffle(len(fired), func(i, j int) { fired[i], fired[j] = fired[j], fired[i] })
		}
		before := append([]int(nil), fired...)
		n := len(fired)
		for _, k := range []int{0, 1, 5, n - 1, n, n + 1} {
			wantScore, wantAttr, wantErr := stableSortAttribution(det, fired, k)
			score, attr, err := det.AttributeFired(fired, k)
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("trial %d k=%d: err %v, oracle err %v", trial, k, err, wantErr)
			}
			if math.Float64bits(score) != math.Float64bits(wantScore) {
				t.Fatalf("trial %d k=%d: score %v, oracle %v", trial, k, score, wantScore)
			}
			if !reflect.DeepEqual(attr, wantAttr) {
				t.Fatalf("trial %d k=%d: attr\n%+v\noracle\n%+v", trial, k, attr, wantAttr)
			}
		}
		if !reflect.DeepEqual(fired, before) {
			t.Fatalf("trial %d: AttributeFired modified its input", trial)
		}
	}
}

// TestAttributionMatchesOracleOnScorerBits drives RawScorer.Attribution
// itself (not AttributeFired) on a hand-set fired vector with a three-way
// magnitude tie of mixed signs, for every k.
func TestAttributionMatchesOracleOnScorerBits(t *testing.T) {
	det := &Detector{
		FeatureNames: []string{"a", "b", "c", "d", "e", "f"},
		Weights:      []float64{-0.5, 0.25, 0.5, -1, 0.5, -0.25},
		Bias:         -0.125,
	}
	r := &RawScorer{det: det, detBits: encoding.NewBitVec(len(det.Weights))}
	for _, slot := range []int{0, 1, 2, 4, 5} {
		r.detBits.Set(slot)
	}
	for k := 0; k <= 6; k++ {
		fired, attr, err := r.Attribution(k)
		if err != nil {
			t.Fatal(err)
		}
		if want := []int{0, 1, 2, 4, 5}; !reflect.DeepEqual(fired, want) {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
		_, want, _ := stableSortAttribution(det, fired, k)
		if !reflect.DeepEqual(attr, want) {
			t.Fatalf("k=%d: attr %+v, oracle %+v", k, attr, want)
		}
	}
	// An empty fired set yields a nil fired list and an empty, non-nil
	// attribution — what the serving path has always stamped.
	r.detBits = encoding.NewBitVec(len(det.Weights))
	fired, attr, err := r.Attribution(5)
	if err != nil || fired != nil || attr == nil || len(attr) != 0 {
		t.Fatalf("empty fired set: fired=%v attr=%#v err=%v", fired, attr, err)
	}
}
