package perspectron

import (
	"bytes"
	"context"
	"slices"
	"testing"

	"perspectron/internal/corpus"
	"perspectron/internal/encoding"
	"perspectron/internal/trace"
	"perspectron/internal/workload/attacks"
	"perspectron/internal/workload/benign"
)

// trainSmall trains a quick detector shared by the API tests.
func trainSmall(t *testing.T) *Detector {
	t.Helper()
	opts := DefaultOptions()
	opts.MaxInsts = 100_000
	opts.Runs = 1
	det, err := Train(TrainingWorkloads(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return det
}

var cachedDetector *Detector

func sharedDetector(t *testing.T) *Detector {
	t.Helper()
	if cachedDetector == nil {
		cachedDetector = trainSmall(t)
	}
	return cachedDetector
}

func TestTrainProducesDetector(t *testing.T) {
	det := sharedDetector(t)
	if det.NumFeatures() != 106 {
		t.Fatalf("features = %d, want 106", det.NumFeatures())
	}
	if det.Interval != 10_000 || det.Threshold != 0.25 {
		t.Fatalf("config not propagated: %+v", det)
	}
	if len(det.FeatureNames) != len(det.Weights) {
		t.Fatalf("names/weights mismatch")
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, DefaultOptions()); err == nil {
		t.Fatalf("empty corpus accepted")
	}
	opts := DefaultOptions()
	opts.MaxInsts = 50_000
	opts.Runs = 1
	if _, err := Train(BenignWorkloads()[:2], opts); err == nil {
		t.Fatalf("single-class corpus accepted")
	}
}

func TestMonitorDetectsAttack(t *testing.T) {
	det := sharedDetector(t)
	rep, err := det.Monitor(AttackByName("spectreV1", "fr"), 100_000, 99)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Detected {
		t.Fatalf("spectreV1 not detected")
	}
	if !rep.Malicious {
		t.Fatalf("ground truth wrong")
	}
	if len(rep.LeakSamples) == 0 {
		t.Fatalf("no leak marks")
	}
}

func TestMonitorPassesBenign(t *testing.T) {
	det := sharedDetector(t)
	for _, name := range []string{"bzip2", "mcf"} {
		var w Workload
		for _, b := range BenignWorkloads() {
			if b.Info().Name == name {
				w = b
			}
		}
		rep, err := det.Monitor(w, 100_000, 7)
		if err != nil {
			t.Fatal(err)
		}
		flagged := 0
		for _, s := range rep.Samples {
			if s.Flagged {
				flagged++
			}
		}
		if flagged > len(rep.Samples)/4 {
			t.Fatalf("benign %s flagged %d/%d samples", name, flagged, len(rep.Samples))
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	det := sharedDetector(t)
	var buf bytes.Buffer
	if err := det.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumFeatures() != det.NumFeatures() || back.Threshold != det.Threshold {
		t.Fatalf("round trip lost configuration")
	}
	// The loaded detector must still detect.
	rep, err := back.Monitor(AttackByName("flush+reload", ""), 80_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Detected {
		t.Fatalf("loaded detector failed to detect flush+reload")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("{")); err == nil {
		t.Fatalf("truncated JSON accepted")
	}
	if _, err := Load(bytes.NewBufferString(`{"feature_names":["a"],"weights":[]}`)); err == nil {
		t.Fatalf("inconsistent detector accepted")
	}
}

func TestAttackByName(t *testing.T) {
	names := []string{"spectreV1", "spectreV2", "spectreRSB", "meltdown",
		"breakingKSLR", "cacheOut", "flush+reload", "flush+flush", "prime+probe"}
	for _, n := range names {
		if AttackByName(n, "fr") == nil {
			t.Fatalf("attack %q missing", n)
		}
	}
	if AttackByName("nope", "fr") != nil {
		t.Fatalf("unknown attack returned non-nil")
	}
}

func TestPolymorphicVariantsCount(t *testing.T) {
	if got := len(PolymorphicVariants("fr")); got != 12 {
		t.Fatalf("polymorphic variants = %d, want 12 (paper §VI-A1)", got)
	}
}

func TestReduceBandwidthKeepsLabel(t *testing.T) {
	w := ReduceBandwidth(AttackByName("spectreV1", "fr"), 0.5)
	if w.Info().Label.String() != "malicious" {
		t.Fatalf("bandwidth wrapper changed label")
	}
	if ReduceBandwidth(AttackByName("spectreV1", "fr"), 1.0).Info().Name != "spectreV1-fr" {
		t.Fatalf("factor 1.0 should be identity")
	}
}

func TestTopFeatures(t *testing.T) {
	det := sharedDetector(t)
	sus, ben := det.TopFeatures(5)
	if len(sus) != 5 || len(ben) != 5 {
		t.Fatalf("top features sizes: %d/%d", len(sus), len(ben))
	}
	if sus[0].Weight <= ben[0].Weight {
		t.Fatalf("weight ordering wrong: %+v vs %+v", sus[0], ben[0])
	}
}

func TestHardwareSummary(t *testing.T) {
	det := sharedDetector(t)
	h := det.Hardware()
	if h.NumFeatures != det.NumFeatures() {
		t.Fatalf("hardware model feature count mismatch")
	}
	if !h.FitsInSamplingInterval() {
		t.Fatalf("detector does not fit its sampling interval")
	}
}

func TestZeroDayBeyondPaper(t *testing.T) {
	// SpectreV4 and RowHammer are in neither the paper's corpus nor ours;
	// the detector trained on the standard corpus must still flag both
	// from their shared microarchitectural footprints (order violations +
	// squashes + channel for V4; flush storms + DRAM activations for
	// RowHammer — the paper's footnote-5 prediction).
	det := sharedDetector(t)
	for _, name := range []string{"spectreV4", "rowhammer"} {
		rep, err := det.Monitor(AttackByName(name, "fr"), 80_000, 23)
		if err != nil {
			t.Fatal(err)
		}
		flagged := 0
		for _, s := range rep.Samples {
			if s.Flagged {
				flagged++
			}
		}
		if flagged < len(rep.Samples)/2 {
			t.Errorf("zero-day %s flagged only %d/%d samples", name, flagged, len(rep.Samples))
		}
	}
}

// TestTrainServeBitsAgree: for every training sample, the bits a trained
// detector's RawScorer fires — the serving path, through the detector's
// embedded maxima and names resolved on a fresh machine — must equal the
// sample's training row.
func TestTrainServeBitsAgree(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxInsts = 100_000
	opts.Runs = 1
	checkTrainServeBits(t, sharedDetector(t), TrainingWorkloads(), opts)
}

// TestTrainServeBitsAgreePastEmbeddedPoints: runs of 80 sampling points,
// longer than the maxPoints a detector embeds. Samples past them are served
// through the global maxima, so they must have been trained that way too.
func TestTrainServeBitsAgreePastEmbeddedPoints(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxInsts = 800_000
	opts.Runs = 1
	ws := []Workload{benign.Gcc(), benign.Mcf(), attacks.SpectreV1("fr"), attacks.FlushReload()}
	det, err := Train(ws, opts)
	if err != nil {
		t.Fatal(err)
	}
	if late := checkTrainServeBits(t, det, ws, opts); late == 0 {
		t.Fatalf("no sample past point %d", maxPoints-1)
	}
}

// checkTrainServeBits serves every training sample of det's corpus and
// compares the fired bits with the training rows: as a whole against the
// firing rates Train recorded from the rows it fit (Lineage.FeatureMeans),
// and row by row against the served view's encoding. It returns how many
// samples lie past the embedded points.
func checkTrainServeBits(t *testing.T, det *Detector, ws []Workload, opts Options) (late int) {
	t.Helper()
	p := corpus.Default().PreparedCtx(context.Background(), ws, opts.CollectConfig(), opts.selectConfig())
	scorer, err := NewRawScorer(det, nil)
	if err != nil {
		t.Fatal(err)
	}
	served := make([]encoding.BitVec, len(p.DS.Samples))
	for i, s := range p.DS.Samples {
		scorer.Detect(RawSample{Sample: s.Index, Raw: s.Raw})
		served[i] = slices.Clone(scorer.detBits)
		if s.Index >= maxPoints {
			late++
		}
	}
	if got := firingRates(served, det.NumFeatures()); !slices.Equal(got, det.Lineage.FeatureMeans) {
		t.Fatalf("served firing rates differ from the rates Train fit on:\nserved  %v\ntrained %v", got, det.Lineage.FeatureMeans)
	}
	rows, _ := trace.Bits(servedView(p.Enc), p.DS, p.Sel.Indices)
	for i, s := range p.DS.Samples {
		if len(served[i]) != len(rows[i]) {
			t.Fatalf("sample %d: served %d words, trained %d", i, len(served[i]), len(rows[i]))
		}
		for w := range rows[i] {
			if served[i][w] != rows[i][w] {
				t.Fatalf("sample %d (%s, point %d) word %d: served %016x, trained %016x",
					i, s.Program, s.Index, w, served[i][w], rows[i][w])
			}
		}
	}
	return late
}
