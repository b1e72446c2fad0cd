package serve

// Startup recovery: everything a crashed (kill -9, power loss) or
// disk-faulted previous incarnation may have left behind is repaired here,
// before the supervisor starts producing — a torn verdict-log tail is
// truncated to the last complete JSONL record (the torn bytes quarantined,
// never silently discarded), a corrupt primary checkpoint falls back through
// the last-good chain, temp debris from failed atomic writes is swept, and
// the durable state file is reconciled against what actually reached disk so
// the accounting invariant
//
//	enqueued == records + lost
//
// (records = scored and error verdicts on disk, lost = counted-lossy
// drops + lost_on_crash) holds across restarts. Every recovery stamps a
// mode:"recovery" accounting record into the log carrying the new session
// number and the verdicts attributed to the crash.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"perspectron"
	"perspectron/internal/diskfaults"
	"perspectron/internal/telemetry"
)

// ServeState is the durable progress ledger persisted atomically next to the
// verdict log (Config.StatePath). All counters are cumulative across process
// incarnations; the post-recovery baseline always satisfies
// Enqueued == Records + Lost.
type ServeState struct {
	// Sessions counts process incarnations (1-based; each recovery bumps it).
	Sessions int `json:"sessions"`
	// Enqueued is every sample ever admitted to scoring.
	Enqueued int64 `json:"enqueued"`
	// Records is every sample verdict that reached the log on disk
	// (recovery stamps excluded).
	Records int64 `json:"records"`
	// Lost is every verdict that did not: counted-lossy drops while the disk
	// was broken plus lost_on_crash reconciled at recovery.
	Lost int64 `json:"lost"`
}

// loadServeState reads the state file; ok is false when it is missing or
// undecodable (recovery then rebuilds a baseline from the log itself).
func loadServeState(path string) (st ServeState, ok bool) {
	b, err := os.ReadFile(path)
	if err != nil {
		return ServeState{}, false
	}
	if json.Unmarshal(b, &st) != nil {
		telemetry.Get().Counter("perspectron_serve_state_corrupt_total").Inc()
		return ServeState{}, false
	}
	return st, true
}

// saveServeState persists the ledger atomically (site "servestate").
func saveServeState(path string, st ServeState) error {
	return diskfaults.WriteFileAtomic(diskfaults.SiteServeState, path, func(w io.Writer) error {
		return json.NewEncoder(w).Encode(st)
	})
}

// RecoveryReport is what startup recovery found and fixed, printed by the
// CLI and exposed for tests.
type RecoveryReport struct {
	// Session is this incarnation's 1-based number.
	Session int `json:"session"`
	// TornBytes is the size of the torn verdict-log tail truncated away;
	// QuarantinePath is where those bytes were preserved (empty when the
	// tail was clean).
	TornBytes      int64  `json:"torn_bytes"`
	QuarantinePath string `json:"quarantine_path,omitempty"`
	// RecordsOnDisk is the complete sample records found in the repaired
	// log (recovery stamps excluded); CorruptLines the undecodable complete
	// lines skipped while counting.
	RecordsOnDisk int64 `json:"records_on_disk"`
	CorruptLines  int   `json:"corrupt_lines"`
	// LostOnCrash is the verdicts newly attributed to the previous
	// incarnation: admitted per the state file but absent from disk.
	LostOnCrash int64 `json:"lost_on_crash"`
	// CheckpointFallback names the last-good copy restored over a corrupt
	// primary checkpoint (empty when the primary loaded cleanly).
	CheckpointFallback string `json:"checkpoint_fallback,omitempty"`
	// SweptTemp counts temp-file debris removed.
	SweptTemp int `json:"swept_temp"`
	// State is the reconciled post-recovery baseline.
	State ServeState `json:"state"`
}

// String renders the report as the one-line startup log the CLI prints.
func (r *RecoveryReport) String() string {
	if r == nil {
		return "recovery: disabled"
	}
	s := fmt.Sprintf("recovery: session %d, %d records on disk", r.Session, r.RecordsOnDisk)
	if r.TornBytes > 0 {
		s += fmt.Sprintf(", %dB torn tail quarantined at %s", r.TornBytes, r.QuarantinePath)
	}
	if r.LostOnCrash > 0 {
		s += fmt.Sprintf(", %d lost on crash", r.LostOnCrash)
	}
	if r.CheckpointFallback != "" {
		s += ", checkpoint restored from " + r.CheckpointFallback
	}
	if r.SweptTemp > 0 {
		s += fmt.Sprintf(", %d temp files swept", r.SweptTemp)
	}
	return s
}

// repairChunk is how much of the tail repairLogTail reads per backward step
// while hunting for the last newline.
const repairChunk = 64 * 1024

// repairLogTail truncates path to its last newline-terminated byte, moving
// the torn remainder to path+".torn" (appended, so repeated crashes keep
// accumulating evidence rather than overwriting it). A missing log is clean.
func repairLogTail(path string) (torn int64, quarantine string, err error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, "", nil
		}
		return 0, "", err
	}
	defer f.Close()
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil || size == 0 {
		return 0, "", err
	}
	// Scan backwards for the last '\n'; end == 0 means the whole file is one
	// torn line.
	end := int64(0)
	buf := make([]byte, repairChunk)
	for pos := size; pos > 0 && end == 0; {
		n := int64(len(buf))
		if n > pos {
			n = pos
		}
		pos -= n
		if _, err := f.ReadAt(buf[:n], pos); err != nil {
			return 0, "", err
		}
		if i := bytes.LastIndexByte(buf[:n], '\n'); i >= 0 {
			end = pos + int64(i) + 1
		}
	}
	torn = size - end
	if torn == 0 {
		return 0, "", nil
	}
	// Quarantine the torn bytes before truncating: evidence first.
	tail := make([]byte, torn)
	if _, err := f.ReadAt(tail, end); err != nil {
		return 0, "", err
	}
	quarantine = path + ".torn"
	q, err := os.OpenFile(quarantine, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, "", err
	}
	_, werr := q.Write(tail)
	if serr := q.Sync(); werr == nil {
		werr = serr
	}
	if cerr := q.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return 0, "", werr
	}
	if err := f.Truncate(end); err != nil {
		return 0, "", err
	}
	if err := f.Sync(); err != nil {
		return 0, "", err
	}
	reg := telemetry.Get()
	reg.Counter("perspectron_serve_log_repairs_total").Inc()
	reg.Counter("perspectron_serve_log_torn_bytes_total").Add(uint64(torn))
	return torn, quarantine, nil
}

// scanLog tallies the repaired log: complete sample records (recovery
// stamps excluded), corrupt lines, the number of recovery stamps, and the
// cumulative Lost those stamps carry (the baseline source when the state
// file is missing).
func scanLog(path string) (records int64, corrupt, stamps, maxSession int, stampedLost int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, 0, 0, 0, 0, nil
		}
		return 0, 0, 0, 0, 0, err
	}
	defer f.Close()
	sc := NewVerdictScanner(f)
	for {
		rec, ok := sc.Next()
		if !ok {
			break
		}
		if rec.Mode == ModeRecovery {
			stamps++
			stampedLost += int64(rec.Lost)
			if rec.Session > maxSession {
				maxSession = rec.Session
			}
			continue
		}
		records++
	}
	return records, sc.Corrupt(), stamps, maxSession, stampedLost, sc.Err()
}

// sweepTempDebris removes "<base>.tmp-*" leftovers from failed atomic writes
// next to each of paths. Unlike the corpus cache's age-gated sweep, these
// files belong to this (single-instance) service, so any debris present at
// startup is from a dead writer.
func sweepTempDebris(paths ...string) int {
	swept := 0
	seen := map[string]bool{}
	for _, p := range paths {
		if p == "" {
			continue
		}
		pat := filepath.Join(filepath.Dir(p), filepath.Base(p)+".tmp-*")
		if seen[pat] {
			continue
		}
		seen[pat] = true
		matches, _ := filepath.Glob(pat)
		for _, m := range matches {
			if os.Remove(m) == nil {
				swept++
			}
		}
	}
	if swept > 0 {
		telemetry.Get().Counter("perspectron_serve_recovery_swept_total").Add(uint64(swept))
	}
	return swept
}

// lastGoodPaths returns the fallback chain behind a checkpoint path, nearest
// first.
func lastGoodPaths(path string) [2]string {
	return [2]string{path + ".last-good", path + ".last-good.2"}
}

// saveLastGood copies a just-verified-loadable checkpoint to its .last-good
// slot, rotating a differing previous copy to .last-good.2 — the fallback
// chain recovery walks when the primary is corrupt. Content-compared, so
// re-verifying an unchanged file writes nothing. Best-effort: last-good is
// insurance, its failure must not fail serving.
func saveLastGood(path string) {
	cur, err := os.ReadFile(path)
	if err != nil {
		return
	}
	chain := lastGoodPaths(path)
	prev, perr := os.ReadFile(chain[0])
	if perr == nil && bytes.Equal(prev, cur) {
		return
	}
	if perr == nil {
		_ = diskfaults.Rename(diskfaults.SiteCheckpoint, chain[0], chain[1])
	}
	_ = diskfaults.WriteFileAtomic(diskfaults.SiteCheckpoint, chain[0], func(w io.Writer) error {
		_, werr := w.Write(cur)
		return werr
	})
}

// recoverCheckpoint verifies that the checkpoint at path loads (via load,
// which validates the embedded checksum) and, when it does not, quarantines
// the corrupt primary at path+".corrupt" and restores the first loadable
// copy from the last-good chain. Returns the chain path restored from
// (empty when the primary was fine) and an error only when nothing in the
// chain loads.
func recoverCheckpoint(path string, load func(string) error) (fallback string, err error) {
	primaryErr := load(path)
	if primaryErr == nil {
		return "", nil
	}
	if !os.IsNotExist(primaryErr) {
		// Preserve the corrupt bytes for forensics; a missing file has
		// nothing to preserve.
		_ = os.Rename(path, path+".corrupt")
	}
	for _, cand := range lastGoodPaths(path) {
		if load(cand) != nil {
			continue
		}
		b, rerr := os.ReadFile(cand)
		if rerr != nil {
			continue
		}
		if werr := diskfaults.WriteFileAtomic(diskfaults.SiteCheckpoint, path, func(w io.Writer) error {
			_, e := w.Write(b)
			return e
		}); werr != nil {
			return "", fmt.Errorf("serve: restoring %s from %s: %w", path, cand, werr)
		}
		telemetry.Get().Counter("perspectron_serve_checkpoint_fallback_total").Inc()
		return cand, nil
	}
	return "", fmt.Errorf("serve: checkpoint %s corrupt (%v) and no loadable last-good copy", path, primaryErr)
}

// stampRecovery appends the mode:"recovery" accounting record directly to
// the repaired log (before the supervisor's buffered writer opens it, so
// session record counts stay stamp-free) and syncs it.
func stampRecovery(path string, session int, lost int64) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	wf := diskfaults.WrapFile(diskfaults.SiteVerdictLog, f)
	err = json.NewEncoder(wf).Encode(VerdictRecord{
		Mode:    ModeRecovery,
		Session: session,
		Lost:    int(lost),
	})
	if serr := wf.Sync(); err == nil {
		err = serr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// recover runs the full startup sequence for cfg (which must have
// VerdictLogPath set): sweep, checkpoint fallback, log-tail repair, ledger
// reconciliation, state save, recovery stamp.
func runRecovery(cfg Config) (*RecoveryReport, error) {
	rep := &RecoveryReport{}
	rep.SweptTemp = sweepTempDebris(cfg.VerdictLogPath, cfg.StatePath, cfg.DetectorPath, cfg.ClassifierPath)

	if cfg.DetectorPath != "" && cfg.detector == nil {
		fb, err := recoverCheckpoint(cfg.DetectorPath, func(p string) error {
			_, e := perspectron.LoadFile(p)
			return e
		})
		if err != nil {
			return nil, err
		}
		rep.CheckpointFallback = fb
	}
	if cfg.ClassifierPath != "" && cfg.classifier == nil {
		fb, err := recoverCheckpoint(cfg.ClassifierPath, func(p string) error {
			_, e := perspectron.LoadClassifierFile(p)
			return e
		})
		if err != nil {
			return nil, err
		}
		if fb != "" && rep.CheckpointFallback == "" {
			rep.CheckpointFallback = fb
		}
	}

	torn, quarantine, err := repairLogTail(cfg.VerdictLogPath)
	if err != nil {
		return nil, fmt.Errorf("serve: repairing verdict log: %w", err)
	}
	rep.TornBytes, rep.QuarantinePath = torn, quarantine

	records, corrupt, stamps, maxSession, stampedLost, err := scanLog(cfg.VerdictLogPath)
	if err != nil {
		return nil, fmt.Errorf("serve: scanning verdict log: %w", err)
	}
	rep.RecordsOnDisk, rep.CorruptLines = records, corrupt

	st, ok := loadServeState(cfg.StatePath)
	if !ok {
		// No ledger (first run, or lost/corrupt state): rebuild the baseline
		// from the log itself. The recovery stamps preserve previously
		// reconciled losses, so repeated state loss does not forget them.
		st = ServeState{Sessions: stamps, Enqueued: records + stampedLost, Records: records, Lost: stampedLost}
	}
	// Reconcile: samples the ledger admitted that never reached disk are
	// lost_on_crash. The disk can also be AHEAD of the ledger (records
	// flushed after the last state save) — then the ledger catches up
	// instead of inventing loss.
	expected := st.Enqueued - st.Lost
	lostNew := expected - records
	if lostNew < 0 {
		st.Enqueued = records + st.Lost
		lostNew = 0
	}
	st.Lost += lostNew
	st.Records = records
	// A crash between the state save below and the stamp write leaves the
	// ledger one session ahead of the log (or, under state-file loss, the
	// stamps ahead of the rebuilt ledger) — take the max so session numbers
	// never repeat and stamped session numbers stay strictly increasing.
	if maxSession > st.Sessions {
		st.Sessions = maxSession
	}
	st.Sessions++
	rep.LostOnCrash = lostNew
	rep.Session = st.Sessions
	if lostNew > 0 {
		telemetry.Get().Counter("perspectron_serve_lost_on_crash_total").Add(uint64(lostNew))
	}
	if err := saveServeState(cfg.StatePath, st); err != nil {
		return nil, fmt.Errorf("serve: persisting state: %w", err)
	}
	if err := stampRecovery(cfg.VerdictLogPath, st.Sessions, lostNew); err != nil {
		return nil, fmt.Errorf("serve: stamping recovery record: %w", err)
	}
	rep.State = st
	return rep, nil
}

// derivePaths fills the durability defaults that hang off VerdictLogPath.
func (c *Config) derivePaths() {
	if c.VerdictLogPath != "" && c.StatePath == "" {
		c.StatePath = c.VerdictLogPath + ".state"
	}
}

// DurableHealth is the /healthz block for crash-safe serving: the ledger,
// the verdict log's disk state, and what the last recovery found.
type DurableHealth struct {
	Session  int   `json:"session"`
	Enqueued int64 `json:"enqueued"`
	Records  int64 `json:"records"`
	Lost     int64 `json:"lost"`
	// LostOnCrash is what this incarnation's recovery attributed to the
	// previous one; TornBytes the tail it truncated.
	LostOnCrash int64 `json:"lost_on_crash"`
	TornBytes   int64 `json:"torn_bytes"`
	// DiskError is sticky: the first disk error this incarnation ever hit,
	// reported even after recovery. Lossy marks the log currently dropping
	// (counted) records; Recoveries counts lossy→healthy transitions.
	DiskError  string `json:"disk_error,omitempty"`
	Lossy      bool   `json:"lossy,omitempty"`
	Recoveries int    `json:"recoveries,omitempty"`
}

// durableSnapshot folds the recovery baseline and the live session's log
// stats into the cumulative ledger view. Returns nil when durability is off
// (no VerdictLogPath).
func (s *Supervisor) durableSnapshot() *DurableHealth {
	if s.report == nil {
		return nil
	}
	ls := s.log.stats()
	d := &DurableHealth{
		Session:     s.report.Session,
		Enqueued:    s.base.Enqueued + s.sessionEnqueued(),
		Records:     s.base.Records + int64(ls.Records),
		Lost:        s.base.Lost + int64(ls.Lost),
		LostOnCrash: s.report.LostOnCrash,
		TornBytes:   s.report.TornBytes,
		Lossy:       ls.Lossy,
		Recoveries:  ls.Recoveries,
	}
	if ls.DiskErr != nil {
		d.DiskError = ls.DiskErr.Error()
	}
	return d
}

// sessionEnqueued sums the workers' admission counters — this
// incarnation's contribution to the durable Enqueued ledger.
func (s *Supervisor) sessionEnqueued() int64 {
	var n int64
	for _, w := range s.workers {
		n += w.enqueued.Load()
	}
	return n
}

// persistState writes the current cumulative ledger to the state file. It
// runs right after a log flush, so Records counts lines actually on disk;
// the reconciliation at next startup recomputes Records from the disk anyway
// — only Enqueued and Lost feed the lost_on_crash math, and both are
// conservative (a sample admitted but unflushed at crash time is exactly a
// lost verdict).
func (s *Supervisor) persistState() {
	if s.report == nil || s.cfg.StatePath == "" {
		return
	}
	ls := s.log.stats()
	enq := s.sessionEnqueued()
	st := ServeState{
		Sessions: s.report.Session,
		Enqueued: s.base.Enqueued + enq,
		Records:  s.base.Records + int64(ls.Records),
		Lost:     s.base.Lost + int64(ls.Lost),
	}
	if err := saveServeState(s.cfg.StatePath, st); err != nil {
		telemetry.Get().Counter("perspectron_serve_state_save_errors_total").Inc()
	}
}

// Report returns the startup recovery report, nil when durability is off.
func (s *Supervisor) Report() *RecoveryReport { return s.report }

// quarantineSuffixes are the file suffixes recovery may create next to the
// verdict log and checkpoints; exported for tooling and tests via docs.
var quarantineSuffixes = []string{".torn", ".corrupt", ".last-good", ".last-good.2", ".state"}

// isQuarantinePath reports whether path is recovery bookkeeping rather than
// primary data (used by tests and sweep tooling).
func isQuarantinePath(path string) bool {
	for _, suf := range quarantineSuffixes {
		if strings.HasSuffix(path, suf) {
			return true
		}
	}
	return false
}
