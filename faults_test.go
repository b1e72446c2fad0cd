package perspectron

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// mutate round-trips the shared detector through JSON, lets f corrupt the
// generic decoding, and returns Load's verdict on the re-encoded bytes. The
// embedded checksum is stripped so the corruption reaches the structural
// validator (with it left in place, every mutation would fail earlier with
// the generic checksum-mismatch error — TestChecksumDetectsMutation covers
// that path).
func mutate(t *testing.T, f func(m map[string]any)) error {
	t.Helper()
	var buf bytes.Buffer
	if err := sharedDetector(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	f(m)
	delete(m, "checksum")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	_, lerr := Load(bytes.NewReader(out))
	return lerr
}

func TestSaveLoadRoundTripStrict(t *testing.T) {
	det := sharedDetector(t)
	var buf bytes.Buffer
	if err := det.Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.Bytes()
	back, err := Load(bytes.NewReader(saved))
	if err != nil {
		t.Fatal(err)
	}
	if back.NumFeatures() != det.NumFeatures() ||
		back.Threshold != det.Threshold ||
		back.Interval != det.Interval ||
		len(back.GlobalMax) != len(det.GlobalMax) ||
		len(back.PointMax) != len(det.PointMax) {
		t.Fatalf("round trip lost configuration")
	}
	// Save → Load → Save is a fixed point.
	var buf2 bytes.Buffer
	if err := back.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved, buf2.Bytes()) {
		t.Fatalf("second save differs from first")
	}

	// Truncated JSON.
	if _, err := Load(bytes.NewReader(saved[:len(saved)/2])); err == nil {
		t.Fatalf("truncated JSON accepted")
	}
	// A NaN weight cannot survive Save at all: encoding/json has no NaN
	// representation, so the writer side already refuses to emit one.
	nan := *det
	nan.Weights = append([]float64{}, det.Weights...)
	nan.Weights[0] = math.NaN()
	if err := nan.Save(&bytes.Buffer{}); err == nil {
		t.Fatalf("Save serialized a NaN weight")
	}
	// A writer that sneaks an out-of-range literal past JSON is rejected at
	// decode time; one that writes null (the usual NaN mangling) yields a
	// zero weight, which decodes — validate guards the rest (see
	// TestValidateDirect for the direct NaN/Inf rejects).
	spliced := strings.Replace(string(saved), "\"weights\": [", "\"weights\": [1e999, ", 1)
	if _, err := Load(strings.NewReader(spliced)); err == nil {
		t.Fatalf("out-of-range weight literal accepted")
	}
	// Mismatched PointMax row width.
	if err := mutate(t, func(m map[string]any) {
		rows := m["point_max"].([]any)
		row := rows[0].([]any)
		rows[0] = row[:len(row)-1]
	}); err == nil || !strings.Contains(err.Error(), "point-max row") {
		t.Fatalf("mismatched point-max width accepted (err=%v)", err)
	}
	// GlobalMax width mismatch.
	if err := mutate(t, func(m map[string]any) {
		gm := m["global_max"].([]any)
		m["global_max"] = gm[:len(gm)-1]
	}); err == nil || !strings.Contains(err.Error(), "global maxima") {
		t.Fatalf("mismatched global-max width accepted (err=%v)", err)
	}
	// Weight count mismatch.
	if err := mutate(t, func(m map[string]any) {
		w := m["weights"].([]any)
		m["weights"] = w[:len(w)-1]
	}); err == nil || !strings.Contains(err.Error(), "weights") {
		t.Fatalf("weight/feature mismatch accepted (err=%v)", err)
	}
	// Zero interval.
	if err := mutate(t, func(m map[string]any) { m["interval"] = 0 }); err == nil ||
		!strings.Contains(err.Error(), "interval") {
		t.Fatalf("zero interval accepted (err=%v)", err)
	}
	// Empty detector.
	if _, err := Load(strings.NewReader("{}")); err == nil {
		t.Fatalf("empty detector accepted")
	}
}

func TestValidateDirect(t *testing.T) {
	det := sharedDetector(t)
	if err := det.validate(); err != nil {
		t.Fatalf("trained detector invalid: %v", err)
	}
	bad := *det
	bad.Weights = append([]float64{}, det.Weights...)
	bad.Weights[0] = math.NaN()
	if err := bad.validate(); err == nil || !strings.Contains(err.Error(), "non-finite weight") {
		t.Fatalf("NaN weight accepted (err=%v)", err)
	}
	bad = *det
	bad.Bias = math.Inf(1)
	if err := bad.validate(); err == nil {
		t.Fatalf("infinite bias accepted")
	}
	bad = *det
	bad.GlobalMax = append([]float64{}, det.GlobalMax...)
	bad.GlobalMax[0] = math.NaN()
	if err := bad.validate(); err == nil || !strings.Contains(err.Error(), "global max") {
		t.Fatalf("NaN global max accepted (err=%v)", err)
	}
}

func TestAttackByNameTable(t *testing.T) {
	cases := []struct {
		name        string
		channel     string
		wantName    string
		wantChannel string
	}{
		// Channel-parameterized attacks pass the channel through.
		{"spectreV1", "fr", "spectreV1-fr", "fr"},
		{"spectreV1", "pp", "spectreV1-pp", "pp"},
		{"spectreV2", "ff", "spectreV2-ff", "ff"},
		{"spectreRSB", "fr", "spectreRSB-fr", "fr"},
		{"meltdown", "pp", "meltdown-pp", "pp"},
		{"cacheOut", "fr", "cacheOut-fr", "fr"},
		// Unknown channel names fall through to the default (fr).
		{"spectreV1", "bogus", "spectreV1-fr", "fr"},
		{"spectreV1", "", "spectreV1-fr", "fr"},
		// Fixed-channel attacks ignore the channel argument.
		{"breakingKSLR", "pp", "breakingKSLR", "fr"},
		{"flush+reload", "pp", "flush+reload", "fr"},
		{"flush+flush", "fr", "flush+flush", "ff"},
		{"prime+probe", "ff", "prime+probe", "pp"},
		// Beyond-paper attacks are reachable by name too.
		{"spectreV4", "fr", "spectreV4-fr", "fr"},
		{"rowhammer", "pp", "rowhammer", ""},
	}
	for _, tc := range cases {
		w := AttackByName(tc.name, tc.channel)
		if w == nil {
			t.Fatalf("AttackByName(%q, %q) = nil", tc.name, tc.channel)
		}
		info := w.Info()
		if info.Name != tc.wantName {
			t.Errorf("AttackByName(%q, %q).Name = %q, want %q", tc.name, tc.channel, info.Name, tc.wantName)
		}
		if info.Channel != tc.wantChannel {
			t.Errorf("AttackByName(%q, %q).Channel = %q, want %q", tc.name, tc.channel, info.Channel, tc.wantChannel)
		}
		if info.Label.String() != "malicious" {
			t.Errorf("AttackByName(%q, %q) not labelled malicious", tc.name, tc.channel)
		}
	}
	for _, unknown := range []string{"", "nope", "spectrev1", "SPECTREV1", "flush+probe"} {
		if AttackByName(unknown, "fr") != nil {
			t.Errorf("AttackByName(%q) returned non-nil", unknown)
		}
	}
}

func TestReportLeakBeforeSemantics(t *testing.T) {
	det := sharedDetector(t)

	// A benign run never flags: FirstFlag < 0 encodes "never flagged", and
	// LeakBefore stays false because nothing leaked.
	ben, err := det.Monitor(BenignWorkloads()[0], 40_000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if ben.Detected {
		t.Skipf("benign workload flagged under this quick detector; semantics untestable here")
	}
	if ben.FirstFlag >= 0 {
		t.Fatalf("undetected report has FirstFlag=%d, want negative", ben.FirstFlag)
	}
	if ben.LeakBefore {
		t.Fatalf("LeakBefore true without any leak")
	}
	if len(ben.LeakSamples) != 0 {
		t.Fatalf("benign run reported leaks: %v", ben.LeakSamples)
	}

	// An attack run: Detected iff FirstFlag >= 0; LeakBefore must agree
	// with its definition against LeakSamples.
	att, err := det.Monitor(AttackByName("spectreV1", "fr"), 60_000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if att.Detected != (att.FirstFlag >= 0) {
		t.Fatalf("Detected=%v inconsistent with FirstFlag=%d", att.Detected, att.FirstFlag)
	}
	if len(att.LeakSamples) == 0 {
		t.Fatalf("spectreV1 never leaked in %d samples", len(att.Samples))
	}
	want := att.FirstFlag < 0 || att.LeakSamples[0] < att.FirstFlag
	if att.LeakBefore != want {
		t.Fatalf("LeakBefore=%v, want %v (FirstFlag=%d, first leak=%d)",
			att.LeakBefore, want, att.FirstFlag, att.LeakSamples[0])
	}
}

func TestMonitorCleanRunNotDegraded(t *testing.T) {
	det := sharedDetector(t)
	rep, err := det.Monitor(AttackByName("flush+reload", ""), 40_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degraded {
		t.Fatalf("clean run reported degraded mode")
	}
	if rep.Coverage != 1 {
		t.Fatalf("clean run coverage = %v, want 1", rep.Coverage)
	}
}

// TestDropoutAcceptance is the PR's acceptance bar: with 20% random counter
// dropout injected, the detector still detects every training-set attack at
// the default threshold, and the report quantifies the degradation.
func TestDropoutAcceptance(t *testing.T) {
	det := sharedDetector(t)
	fc := FaultConfig{Seed: 99, Dropout: 0.2}
	for i, w := range AttackWorkloads() {
		rec, err := Record(context.Background(), w, 80_000, int64(3+i), det.Interval)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := det.Replay(rec, &fc)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Detected {
			t.Errorf("%s not detected under 20%% dropout", rep.Workload)
		}
		if !rep.Degraded {
			t.Errorf("%s: dropout not reflected in Degraded", rep.Workload)
		}
		if rep.Coverage < 0.7 || rep.Coverage > 0.9 {
			t.Errorf("%s: coverage %.3f, want ~0.8 under 20%% dropout", rep.Workload, rep.Coverage)
		}
	}
}

func TestReplayBlackout(t *testing.T) {
	det := sharedDetector(t)
	rec, err := Record(context.Background(), AttackByName("flush+reload", ""), 40_000, 3, det.Interval)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.Replay(rec, &FaultConfig{Blackout: "no-such-component"}); err == nil {
		t.Fatalf("unknown blackout component accepted")
	}
	rep, err := det.Replay(rec, &FaultConfig{Seed: 5, Blackout: "dcache"})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded || rep.Coverage >= 1 {
		t.Fatalf("dcache blackout not reflected: degraded=%v coverage=%.3f",
			rep.Degraded, rep.Coverage)
	}
	// Zero-value fault config is a clean run.
	clean, err := det.Replay(rec, &FaultConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if clean.Degraded {
		t.Fatalf("zero-value FaultConfig degraded the run")
	}
}
