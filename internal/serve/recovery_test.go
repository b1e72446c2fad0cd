package serve

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"perspectron/internal/diskfaults"
	"perspectron/internal/telemetry"
)

// counterDelta returns a reader of how far a process-registry counter has
// advanced since the call: the registry is shared by every test in the
// process, so each test asserts only its own increments.
func counterDelta() func(name string) uint64 {
	reg := telemetry.Get()
	before := reg.Snapshot().Counters
	return func(name string) uint64 { return reg.CounterValue(name) - before[name] }
}

// writeLog joins lines (each becoming one newline-terminated record) plus an
// optional torn suffix into path.
func writeLog(t *testing.T, path string, torn string, lines ...string) {
	t.Helper()
	var b strings.Builder
	for _, l := range lines {
		b.WriteString(l)
		b.WriteString("\n")
	}
	b.WriteString(torn)
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

const (
	stampLine  = `{"mode":"recovery","session":1}`
	sampleLine = `{"worker":"w","episode":1,"sample":%d,"mode":"detector","score":0.5}`
)

func sample(n int) string {
	return strings.Replace(sampleLine, "%d", string(rune('0'+n)), 1)
}

// --- log tail repair ------------------------------------------------------

func TestRepairLogTailCleanAndMissing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "v.jsonl")

	// Missing log: nothing to repair, not an error.
	if torn, q, err := repairLogTail(path); err != nil || torn != 0 || q != "" {
		t.Fatalf("missing log: torn=%d q=%q err=%v", torn, q, err)
	}
	// Clean log: untouched, no quarantine file.
	writeLog(t, path, "", sample(1), sample(2))
	before, _ := os.ReadFile(path)
	if torn, q, err := repairLogTail(path); err != nil || torn != 0 || q != "" {
		t.Fatalf("clean log: torn=%d q=%q err=%v", torn, q, err)
	}
	after, _ := os.ReadFile(path)
	if string(before) != string(after) {
		t.Fatalf("clean log modified by repair")
	}
	if _, err := os.Stat(path + ".torn"); !os.IsNotExist(err) {
		t.Fatalf("quarantine file created for a clean log")
	}
}

func TestRepairLogTailTruncatesAndQuarantines(t *testing.T) {
	delta := counterDelta()
	dir := t.TempDir()
	path := filepath.Join(dir, "v.jsonl")
	tornTail := `{"worker":"w","epi` // writer died mid-record
	writeLog(t, path, tornTail, sample(1), sample(2))

	torn, q, err := repairLogTail(path)
	if err != nil {
		t.Fatal(err)
	}
	if torn != int64(len(tornTail)) || q != path+".torn" {
		t.Fatalf("torn=%d q=%q, want %d %q", torn, q, len(tornTail), path+".torn")
	}
	got, _ := os.ReadFile(path)
	if want := sample(1) + "\n" + sample(2) + "\n"; string(got) != want {
		t.Fatalf("repaired log = %q, want %q", got, want)
	}
	quarantined, _ := os.ReadFile(q)
	if string(quarantined) != tornTail {
		t.Fatalf("quarantine = %q, want %q", quarantined, tornTail)
	}
	if n := delta("perspectron_serve_log_repairs_total"); n != 1 {
		t.Fatalf("repairs counter = %d, want 1", n)
	}
	if n := delta("perspectron_serve_log_torn_bytes_total"); n != uint64(len(tornTail)) {
		t.Fatalf("torn-bytes counter = %d, want %d", n, len(tornTail))
	}

	// A second crash tears another tail: the quarantine accumulates, never
	// overwrites.
	second := `{"half":`
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	f.WriteString(second)
	f.Close()
	if _, _, err := repairLogTail(path); err != nil {
		t.Fatal(err)
	}
	quarantined, _ = os.ReadFile(q)
	if string(quarantined) != tornTail+second {
		t.Fatalf("quarantine after second repair = %q, want accumulated %q", quarantined, tornTail+second)
	}
}

func TestRepairLogTailWholeFileTorn(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "v.jsonl")
	writeLog(t, path, `{"no-newline-anywhere`)

	torn, _, err := repairLogTail(path)
	if err != nil {
		t.Fatal(err)
	}
	if torn == 0 {
		t.Fatal("whole-file torn line not detected")
	}
	st, _ := os.Stat(path)
	if st.Size() != 0 {
		t.Fatalf("log not truncated to empty, size=%d", st.Size())
	}
}

// TestRepairLogTailSpansChunks covers the backward scan's chunking, which
// fuzz inputs are too small to reach: the last newline lies one or more
// repairChunk reads before the end, exactly on a chunk boundary, or nowhere.
func TestRepairLogTailSpansChunks(t *testing.T) {
	long := func(n int) string { return strings.Repeat("x", n) }
	cases := []struct {
		name  string
		lines []string
		torn  string
	}{
		{"tail longer than one chunk", []string{sample(1), sample(2)}, long(repairChunk + 100)},
		{"newline at a chunk boundary", []string{long(repairChunk)}, long(repairChunk - 1)},
		{"no newline across chunks", nil, long(3*repairChunk + 7)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "v.jsonl")
			writeLog(t, path, tc.torn, tc.lines...)
			torn, q, err := repairLogTail(path)
			if err != nil {
				t.Fatal(err)
			}
			if torn != int64(len(tc.torn)) {
				t.Fatalf("torn = %d, want %d", torn, len(tc.torn))
			}
			var want strings.Builder
			for _, l := range tc.lines {
				want.WriteString(l + "\n")
			}
			if got, _ := os.ReadFile(path); string(got) != want.String() {
				t.Fatalf("repaired log is %d bytes, want %d", len(got), want.Len())
			}
			if got, _ := os.ReadFile(q); string(got) != tc.torn {
				t.Fatalf("quarantine is %d bytes, want the %d-byte torn tail", len(got), len(tc.torn))
			}
		})
	}
}

// --- log scanning ---------------------------------------------------------

func TestScanLogTallies(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "v.jsonl")
	writeLog(t, path, "",
		`{"mode":"recovery","session":3,"lost":2}`,
		sample(1),
		"not json at all",
		sample(2),
		`{"mode":"recovery","session":7,"lost":4}`,
		sample(3),
	)
	records, corrupt, stamps, maxSession, stampedLost, err := scanLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if records != 3 || corrupt != 1 || stamps != 2 || maxSession != 7 || stampedLost != 6 {
		t.Fatalf("scanLog = records %d corrupt %d stamps %d maxSession %d lost %d, want 3/1/2/7/6",
			records, corrupt, stamps, maxSession, stampedLost)
	}

	// Missing log: all zeros, no error.
	records, corrupt, stamps, maxSession, stampedLost, err = scanLog(filepath.Join(dir, "absent"))
	if err != nil || records != 0 || corrupt != 0 || stamps != 0 || maxSession != 0 || stampedLost != 0 {
		t.Fatalf("missing log: %d/%d/%d/%d/%d err=%v", records, corrupt, stamps, maxSession, stampedLost, err)
	}
}

// --- full recovery reconciliation ----------------------------------------

func recoveryCfg(t *testing.T) Config {
	t.Helper()
	dir := t.TempDir()
	return Config{
		VerdictLogPath: filepath.Join(dir, "v.jsonl"),
		StatePath:      filepath.Join(dir, "v.jsonl.state"),
	}
}

func TestRunRecoveryFirstRun(t *testing.T) {
	cfg := recoveryCfg(t)
	rep, err := runRecovery(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := ServeState{Sessions: 1}
	if rep.Session != 1 || rep.State != want || rep.TornBytes != 0 || rep.LostOnCrash != 0 {
		t.Fatalf("first run report: %+v", rep)
	}
	// The ledger and the stamp both hit disk.
	st, ok := loadServeState(cfg.StatePath)
	if !ok || st != want {
		t.Fatalf("state file after first run: %+v ok=%v", st, ok)
	}
	_, _, stamps, maxSession, _, err := scanLog(cfg.VerdictLogPath)
	if err != nil || stamps != 1 || maxSession != 1 {
		t.Fatalf("stamps=%d maxSession=%d err=%v, want one session-1 stamp", stamps, maxSession, err)
	}

	// An immediate second recovery (clean restart, nothing served) opens
	// session 2 with no invented loss.
	rep, err = runRecovery(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Session != 2 || rep.LostOnCrash != 0 {
		t.Fatalf("clean restart report: %+v", rep)
	}
}

func TestRunRecoveryAttributesCrashLoss(t *testing.T) {
	delta := counterDelta()
	cfg := recoveryCfg(t)
	// Previous incarnation: stamped session 1, five records reached disk,
	// then died mid-record. Its last persisted ledger had admitted 10
	// samples, 2 already counted lost (counted-lossy drops).
	writeLog(t, cfg.VerdictLogPath, `{"worker":"w","epi`,
		stampLine, sample(1), sample(2), sample(3), sample(4), sample(5))
	if err := saveServeState(cfg.StatePath, ServeState{Sessions: 1, Enqueued: 10, Records: 7, Lost: 2}); err != nil {
		t.Fatal(err)
	}

	rep, err := runRecovery(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// expected on disk = 10 admitted − 2 known lost = 8; found 5 → 3 more
	// lost on crash.
	if rep.LostOnCrash != 3 || rep.TornBytes == 0 {
		t.Fatalf("report: %+v", rep)
	}
	want := ServeState{Sessions: 2, Enqueued: 10, Records: 5, Lost: 5}
	if rep.State != want {
		t.Fatalf("reconciled state = %+v, want %+v", rep.State, want)
	}
	if rep.State.Enqueued != rep.State.Records+rep.State.Lost {
		t.Fatalf("invariant broken: %+v", rep.State)
	}
	if n := delta("perspectron_serve_lost_on_crash_total"); n != 3 {
		t.Fatalf("lost-on-crash counter = %d, want 3", n)
	}
	// The new stamp records the crash loss.
	_, _, stamps, maxSession, stampedLost, _ := scanLog(cfg.VerdictLogPath)
	if stamps != 2 || maxSession != 2 || stampedLost != 3 {
		t.Fatalf("stamps=%d maxSession=%d stampedLost=%d, want 2/2/3", stamps, maxSession, stampedLost)
	}
}

func TestRunRecoveryDiskAheadOfLedger(t *testing.T) {
	cfg := recoveryCfg(t)
	// Records flushed after the last state save: the disk holds 6 but the
	// ledger only admitted 4. The ledger catches up; no loss is invented.
	writeLog(t, cfg.VerdictLogPath, "",
		stampLine, sample(1), sample(2), sample(3), sample(4), sample(5), sample(6))
	if err := saveServeState(cfg.StatePath, ServeState{Sessions: 3, Enqueued: 4, Records: 4, Lost: 0}); err != nil {
		t.Fatal(err)
	}
	rep, err := runRecovery(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := ServeState{Sessions: 4, Enqueued: 6, Records: 6, Lost: 0}
	if rep.State != want || rep.LostOnCrash != 0 {
		t.Fatalf("disk-ahead state = %+v lost=%d, want %+v lost=0", rep.State, rep.LostOnCrash, want)
	}
}

func TestRunRecoveryRebuildsBaselineFromStamps(t *testing.T) {
	cfg := recoveryCfg(t)
	// State file lost entirely, but the log carries a session-5 stamp that
	// had reconciled 2 lost verdicts: the rebuilt baseline keeps them and
	// session numbering never goes backwards.
	writeLog(t, cfg.VerdictLogPath, "",
		`{"mode":"recovery","session":5,"lost":2}`, sample(1), sample(2), sample(3))

	rep, err := runRecovery(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := ServeState{Sessions: 6, Enqueued: 5, Records: 3, Lost: 2}
	if rep.State != want {
		t.Fatalf("rebuilt state = %+v, want %+v", rep.State, want)
	}
	if rep.State.Enqueued != rep.State.Records+rep.State.Lost {
		t.Fatalf("invariant broken: %+v", rep.State)
	}
}

func TestLoadServeStateCorrupt(t *testing.T) {
	delta := counterDelta()
	dir := t.TempDir()
	path := filepath.Join(dir, "state")
	if err := os.WriteFile(path, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := loadServeState(path); ok {
		t.Fatal("corrupt state file loaded")
	}
	if n := delta("perspectron_serve_state_corrupt_total"); n != 1 {
		t.Fatalf("corrupt-state counter = %d, want 1", n)
	}
}

// --- checkpoint fallback chain -------------------------------------------

// contentLoader stands in for the checksum-validating checkpoint loaders:
// only files holding "good" load.
func contentLoader(p string) error {
	b, err := os.ReadFile(p)
	if err != nil {
		return err
	}
	if string(b) != "good" {
		return errors.New("checksum mismatch")
	}
	return nil
}

func TestRecoverCheckpointFallbackChain(t *testing.T) {
	delta := counterDelta()
	dir := t.TempDir()
	path := filepath.Join(dir, "det.json")
	chain := lastGoodPaths(path)

	// Healthy primary: untouched, no fallback.
	os.WriteFile(path, []byte("good"), 0o644)
	fb, err := recoverCheckpoint(path, contentLoader)
	if err != nil || fb != "" {
		t.Fatalf("healthy primary: fb=%q err=%v", fb, err)
	}

	// Corrupt primary, loadable .last-good: quarantined + restored.
	os.WriteFile(path, []byte("bad!"), 0o644)
	os.WriteFile(chain[0], []byte("good"), 0o644)
	fb, err = recoverCheckpoint(path, contentLoader)
	if err != nil || fb != chain[0] {
		t.Fatalf("fallback: fb=%q err=%v, want %q", fb, err, chain[0])
	}
	if b, _ := os.ReadFile(path); string(b) != "good" {
		t.Fatalf("primary not restored: %q", b)
	}
	if b, _ := os.ReadFile(path + ".corrupt"); string(b) != "bad!" {
		t.Fatalf("corrupt primary not quarantined: %q", b)
	}
	if n := delta("perspectron_serve_checkpoint_fallback_total"); n != 1 {
		t.Fatalf("fallback counter = %d, want 1", n)
	}

	// Both primary and .last-good corrupt: the chain walks to .last-good.2.
	os.WriteFile(path, []byte("bad!"), 0o644)
	os.WriteFile(chain[0], []byte("also bad"), 0o644)
	os.WriteFile(chain[1], []byte("good"), 0o644)
	fb, err = recoverCheckpoint(path, contentLoader)
	if err != nil || fb != chain[1] {
		t.Fatalf("deep fallback: fb=%q err=%v, want %q", fb, err, chain[1])
	}

	// Nothing loadable: a hard error, not a silent empty model.
	os.WriteFile(path, []byte("bad!"), 0o644)
	os.WriteFile(chain[0], []byte("bad"), 0o644)
	os.WriteFile(chain[1], []byte("bad"), 0o644)
	if _, err = recoverCheckpoint(path, contentLoader); err == nil {
		t.Fatal("all-corrupt chain did not error")
	}

	// Missing primary restores from the chain without quarantining anything.
	os.Remove(path)
	os.Remove(path + ".corrupt")
	os.WriteFile(chain[0], []byte("good"), 0o644)
	fb, err = recoverCheckpoint(path, contentLoader)
	if err != nil || fb != chain[0] {
		t.Fatalf("missing primary: fb=%q err=%v", fb, err)
	}
	if _, serr := os.Stat(path + ".corrupt"); !os.IsNotExist(serr) {
		t.Fatal("quarantine created for a missing primary")
	}
}

func TestSaveLastGoodRotates(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "det.json")
	chain := lastGoodPaths(path)

	os.WriteFile(path, []byte("v1"), 0o644)
	saveLastGood(path)
	if b, _ := os.ReadFile(chain[0]); string(b) != "v1" {
		t.Fatalf("last-good = %q, want v1", b)
	}
	// Re-banking identical content is a no-op: no rotation.
	saveLastGood(path)
	if _, err := os.Stat(chain[1]); !os.IsNotExist(err) {
		t.Fatal("identical re-bank rotated the chain")
	}
	// New content rotates the old copy into slot 2.
	os.WriteFile(path, []byte("v2"), 0o644)
	saveLastGood(path)
	b0, _ := os.ReadFile(chain[0])
	b1, _ := os.ReadFile(chain[1])
	if string(b0) != "v2" || string(b1) != "v1" {
		t.Fatalf("chain after rotation = %q/%q, want v2/v1", b0, b1)
	}
}

// --- debris sweep ---------------------------------------------------------

func TestSweepTempDebris(t *testing.T) {
	dir := t.TempDir()
	log := filepath.Join(dir, "v.jsonl")
	state := filepath.Join(dir, "v.jsonl.state")
	keep := filepath.Join(dir, "v.jsonl.keep")
	os.WriteFile(log+".tmp-123", nil, 0o644)
	os.WriteFile(state+".tmp-9", nil, 0o644)
	os.WriteFile(keep, nil, 0o644)

	// Duplicate and empty path arguments are tolerated.
	if n := sweepTempDebris(log, state, state, ""); n != 2 {
		t.Fatalf("swept %d, want 2", n)
	}
	if _, err := os.Stat(keep); err != nil {
		t.Fatal("sweep removed an unrelated file")
	}
	if m, _ := filepath.Glob(filepath.Join(dir, "*.tmp-*")); len(m) != 0 {
		t.Fatalf("debris left behind: %v", m)
	}
}

func TestQuarantinePathSuffixes(t *testing.T) {
	for _, p := range []string{"v.jsonl.torn", "det.json.corrupt", "det.json.last-good", "det.json.last-good.2", "v.jsonl.state"} {
		if !isQuarantinePath(p) {
			t.Fatalf("%q not recognized as recovery bookkeeping", p)
		}
	}
	if isQuarantinePath("v.jsonl") {
		t.Fatal("primary log misclassified as bookkeeping")
	}
}

// --- counted-lossy verdict log under injected disk faults -----------------

// forceRetry makes the log's next lossy record attempt an immediate recovery.
func forceRetry(l *verdictLog) {
	l.mu.Lock()
	l.nextRetry = time.Time{}
	l.mu.Unlock()
}

// blockRetry pushes the retry window far out so drops are deterministic.
func blockRetry(l *verdictLog) {
	l.mu.Lock()
	l.nextRetry = time.Now().Add(time.Hour)
	l.mu.Unlock()
}

func TestVerdictLogPersistentENOSPC(t *testing.T) {
	delta := counterDelta()
	diskfaults.Disable()
	in := diskfaults.Enable(1)
	defer diskfaults.Disable()
	// The first two verdict-log writes hit ENOSPC, then the disk heals.
	if err := diskfaults.ArmSpec(in, "verdictlog:write:enospc:count=2"); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "v.jsonl")
	l, err := openVerdictLog(path)
	if err != nil {
		t.Fatal(err)
	}

	l.record(VerdictRecord{Worker: "w", Sample: 1, Mode: "detector"})
	if err := l.flush(); err == nil {
		t.Fatal("flush on a full disk did not report the error")
	}
	st := l.stats()
	if !st.Lossy || st.Lost != 1 || st.Records != 0 || st.DiskErr == nil {
		t.Fatalf("after ENOSPC flush: %+v", st)
	}

	// Inside the retry window records are dropped, counted, and never block.
	blockRetry(l)
	l.record(VerdictRecord{Worker: "w", Sample: 2, Mode: "detector"})
	if st = l.stats(); st.Lost != 2 {
		t.Fatalf("drop not counted: %+v", st)
	}

	// First retry still hits ENOSPC (count=2): stays lossy, drops the record.
	forceRetry(l)
	l.record(VerdictRecord{Worker: "w", Sample: 3, Mode: "detector"})
	if st = l.stats(); !st.Lossy || st.Lost != 3 {
		t.Fatalf("failed retry: %+v", st)
	}

	// Disk healed: the next attempt seals the stream and resumes recording.
	forceRetry(l)
	l.record(VerdictRecord{Worker: "w", Sample: 4, Mode: "detector"})
	if err := l.flush(); err != nil {
		t.Fatalf("flush after recovery: %v", err)
	}
	st = l.stats()
	if st.Lossy || st.Records != 1 || st.Lost != 3 || st.Recoveries != 1 {
		t.Fatalf("after recovery: %+v", st)
	}
	if st.DiskErr == nil || !errors.Is(st.DiskErr, syscall.ENOSPC) {
		t.Fatalf("sticky disk error lost after recovery: %v", st.DiskErr)
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}

	if n := delta("perspectron_serve_verdicts_lost_total"); n != 3 {
		t.Fatalf("lost counter = %d, want 3", n)
	}
	if n := delta("perspectron_serve_disk_error_total"); n != 2 {
		t.Fatalf("disk-error counter = %d, want 2", n)
	}
	if n := delta("perspectron_serve_disk_recovered_total"); n != 1 {
		t.Fatalf("recovered counter = %d, want 1", n)
	}

	// On disk: the recovery seal (a blank line readers skip silently) and
	// the one post-recovery record — zero corrupt lines.
	recs, corrupt, _, err := ReadVerdictLog(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || corrupt != 0 || recs[0].Sample != 4 {
		t.Fatalf("on disk: %d recs (%+v), corrupt %d", len(recs), recs, corrupt)
	}
}

func TestVerdictLogTornWriteSealsCorruptLine(t *testing.T) {
	diskfaults.Disable()
	in := diskfaults.Enable(1)
	defer diskfaults.Disable()
	// One torn write: half the buffered batch reaches disk, then ENOSPC.
	if err := diskfaults.ArmSpec(in, "verdictlog:write:torn:count=1"); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "v.jsonl")
	l, err := openVerdictLog(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		l.record(VerdictRecord{Worker: "w", Sample: i, Mode: "detector"})
	}
	if err := l.flush(); err == nil {
		t.Fatal("torn flush did not report the error")
	}
	// All three buffered records are torn out of the accepted count — any
	// prefix of them may be on disk, so none of them is durable.
	if st := l.stats(); !st.Lossy || st.Records != 0 || st.Lost != 3 {
		t.Fatalf("after torn flush: %+v", st)
	}

	// Recovery seals the torn half-record with a newline; the next record
	// lands whole after it.
	forceRetry(l)
	l.record(VerdictRecord{Worker: "w", Sample: 99, Mode: "detector"})
	if err := l.flush(); err != nil {
		t.Fatal(err)
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}

	// The reader sees complete leading records (durability is conservative:
	// they were counted lost), exactly one corrupt sealed line, and the
	// post-recovery record — the torn half-record never merges into it.
	recs, corrupt, _, err := ReadVerdictLog(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if corrupt != 1 {
		t.Fatalf("corrupt lines = %d, want exactly the sealed torn record", corrupt)
	}
	if len(recs) == 0 || recs[len(recs)-1].Sample != 99 {
		t.Fatalf("post-recovery record missing: %+v", recs)
	}
	for _, r := range recs {
		if r.Sample != 99 && r.Sample != 1 {
			t.Fatalf("unexpected record survived the torn write whole: %+v", r)
		}
	}
}

func TestStampRecoveryAppendsDirectly(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "v.jsonl")
	writeLog(t, path, "", sample(1))
	if err := stampRecovery(path, 4, 7); err != nil {
		t.Fatal(err)
	}
	records, corrupt, stamps, maxSession, stampedLost, err := scanLog(path)
	if err != nil || records != 1 || corrupt != 0 || stamps != 1 || maxSession != 4 || stampedLost != 7 {
		t.Fatalf("after stamp: %d/%d/%d/%d/%d err=%v", records, corrupt, stamps, maxSession, stampedLost, err)
	}
}
