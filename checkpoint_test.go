package perspectron

// Checkpoint integrity: the embedded SHA-256 checksum, the legacy
// (checksum-less) compatibility path, the atomic SaveFile/LoadFile wrappers
// and the content-version view the serving runtime's hot-reload uses.

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"perspectron/internal/telemetry"
)

func TestChecksumEmbeddedAndVerified(t *testing.T) {
	det := sharedDetector(t)
	var buf bytes.Buffer
	if err := det.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"checksum": "sha256:`) {
		t.Fatalf("saved detector carries no checksum field")
	}
	back, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Checksum == "" || back.Checksum != det.Checksum {
		t.Fatalf("loaded checksum %q != saved %q", back.Checksum, det.Checksum)
	}
	if v := back.Version(); len(v) != 12 {
		t.Fatalf("Version() = %q, want 12 hex digits", v)
	}
}

// TestChecksumDetectsMutation flips a single stored value while leaving the
// checksum in place: Load must fail with the checkpoint-corrupt error, not a
// field-level validation message.
func TestChecksumDetectsMutation(t *testing.T) {
	var buf bytes.Buffer
	if err := sharedDetector(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	flipped := strings.Replace(s, `"threshold": 0.25`, `"threshold": 0.26`, 1)
	if flipped == s {
		t.Fatalf("test setup: threshold literal not found in %q…", s[:80])
	}
	_, err := Load(strings.NewReader(flipped))
	if err == nil || !strings.Contains(err.Error(), "checkpoint corrupt") {
		t.Fatalf("bit-flipped checkpoint accepted (err=%v)", err)
	}
}

func TestLegacyChecksumlessDetectorLoadsWithWarning(t *testing.T) {
	reg := telemetry.Get()
	series := telemetry.Name("perspectron_checkpoint_legacy_total", "kind", "detector")
	before := reg.CounterValue(series)

	det := sharedDetector(t)
	legacy := *det
	legacy.Checksum = ""
	b, err := json.Marshal(&legacy)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Load(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("legacy checksum-less detector rejected: %v", err)
	}
	if back.Checksum == "" || back.Version() == "unversioned" {
		t.Fatalf("legacy load did not adopt a computed content version")
	}
	if got := reg.CounterValue(series); got != before+1 {
		t.Fatalf("legacy counter advanced by %d, want 1", got-before)
	}
}

func TestClassifierChecksumRoundTripAndCorruption(t *testing.T) {
	c := sharedClassifier(t)
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"checksum":"sha256:`) {
		t.Fatalf("saved classifier carries no checksum field")
	}
	back, err := LoadClassifier(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Version() != c.Version() || len(back.Version()) != 12 {
		t.Fatalf("classifier version mismatch: %q vs %q", back.Version(), c.Version())
	}

	s := buf.String()
	flipped := strings.Replace(s, `"interval":10000`, `"interval":10001`, 1)
	if flipped == s {
		t.Fatalf("test setup: interval literal not found")
	}
	if _, err := LoadClassifier(strings.NewReader(flipped)); err == nil ||
		!strings.Contains(err.Error(), "checkpoint corrupt") {
		t.Fatalf("bit-flipped classifier accepted (err=%v)", err)
	}

	// Truncation dies in the decoder.
	if _, err := LoadClassifier(strings.NewReader(s[:len(s)/2])); err == nil {
		t.Fatalf("truncated classifier accepted")
	}
}

func TestSaveFileAtomicRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "det.json")
	det := sharedDetector(t)
	if err := det.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Version() != det.Version() {
		t.Fatalf("file round trip changed version: %q vs %q", back.Version(), det.Version())
	}
	// No orphaned temp files next to the checkpoint.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("orphaned temp file left behind: %s", e.Name())
		}
	}

	// A distinct model has a distinct content version.
	mod := *det
	mod.Threshold = det.Threshold + 0.01
	path2 := filepath.Join(dir, "det2.json")
	if err := mod.SaveFile(path2); err != nil {
		t.Fatal(err)
	}
	back2, err := LoadFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	if back2.Version() == back.Version() {
		t.Fatalf("different weights share content version %q", back.Version())
	}

	cls := sharedClassifier(t)
	cpath := filepath.Join(dir, "cls.json")
	if err := cls.SaveFile(cpath); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadClassifierFile(cpath); err != nil {
		t.Fatal(err)
	}
}

func TestSaveFileFailureLeavesOldCheckpoint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "det.json")
	det := sharedDetector(t)
	if err := det.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A detector Save refuses to serialize must not touch the existing file.
	bad := *det
	bad.Weights = append([]float64{}, det.Weights...)
	bad.Weights[0] = math.NaN()
	if err := bad.SaveFile(path); err == nil {
		t.Fatalf("NaN detector saved")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(good, after) {
		t.Fatalf("failed save clobbered the existing checkpoint")
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("failed save left temp file %s", e.Name())
		}
	}
}
