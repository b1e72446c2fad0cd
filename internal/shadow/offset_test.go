package shadow

import (
	"os"
	"path/filepath"
	"testing"

	"perspectron/internal/telemetry"
)

func TestOffsetRoundTripAndResets(t *testing.T) {
	reg := telemetry.Get()
	resets := reg.CounterValue("perspectron_shadow_offset_resets_total")
	dir := t.TempDir()
	logPath := filepath.Join(dir, "verdicts.jsonl")
	statePath := logPath + ".offset"
	if err := os.WriteFile(logPath, make([]byte, 100), 0o644); err != nil {
		t.Fatal(err)
	}

	// Missing state: start from zero.
	if off := loadOffset(statePath, logPath); off != 0 {
		t.Fatalf("missing state: offset %d, want 0", off)
	}
	// Round trip.
	if err := saveOffset(statePath, 42); err != nil {
		t.Fatal(err)
	}
	if off := loadOffset(statePath, logPath); off != 42 {
		t.Fatalf("round trip: offset %d, want 42", off)
	}
	// The atomic save leaves no temp debris behind.
	if m, _ := filepath.Glob(statePath + ".tmp-*"); len(m) != 0 {
		t.Fatalf("temp debris after save: %v", m)
	}
	// Corrupt state: start from zero, not an error.
	if err := os.WriteFile(statePath, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if off := loadOffset(statePath, logPath); off != 0 {
		t.Fatalf("corrupt state: offset %d, want 0", off)
	}
	// Negative offset: rejected.
	if err := os.WriteFile(statePath, []byte(`{"offset":-7}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if off := loadOffset(statePath, logPath); off != 0 {
		t.Fatalf("negative offset: %d, want 0", off)
	}
	// Offset past the log's end (rotation/replacement): reset to zero and
	// counted, so a re-tail is visible in telemetry.
	if err := saveOffset(statePath, 500); err != nil {
		t.Fatal(err)
	}
	if off := loadOffset(statePath, logPath); off != 0 {
		t.Fatalf("stale offset past EOF: %d, want 0", off)
	}
	if n := reg.CounterValue("perspectron_shadow_offset_resets_total") - resets; n != 1 {
		t.Fatalf("reset counter = %d, want 1", n)
	}
	// An offset at exactly EOF is valid — the tail is simply caught up.
	if err := saveOffset(statePath, 100); err != nil {
		t.Fatal(err)
	}
	if off := loadOffset(statePath, logPath); off != 100 {
		t.Fatalf("offset at EOF: %d, want 100", off)
	}
}

func TestNewResumesPersistedOffset(t *testing.T) {
	dir := t.TempDir()
	live := filepath.Join(dir, "det.json")
	if err := trainedDetector(t).SaveFile(live); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, "verdicts.jsonl")
	if err := os.WriteFile(logPath, make([]byte, 64), 0o644); err != nil {
		t.Fatal(err)
	}

	cfg := shadowConfig(t, live)
	cfg.VerdictLog = logPath
	// The default StatePath hangs off the log path.
	if err := saveOffset(logPath+".offset", 37); err != nil {
		t.Fatal(err)
	}
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Health().TailOffset; got != 37 {
		t.Fatalf("resumed tail offset = %d, want 37", got)
	}

	// Without a verdict log no offset is loaded at all.
	tr, err = New(shadowConfig(t, live))
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Health().TailOffset; got != 0 {
		t.Fatalf("offset without a log = %d, want 0", got)
	}
}
