package serve

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"sync"
	"time"

	"perspectron"
	"perspectron/internal/diskfaults"
	"perspectron/internal/retry"
	"perspectron/internal/telemetry"
)

// VerdictRecord is one sample's outcome as it appears in the verdict log
// (JSON lines): scored, shed by admission control, or failed in the scorer.
// Every sample admitted to the ingest stage produces exactly one record.
type VerdictRecord struct {
	Worker  string `json:"worker"`
	Episode int    `json:"episode"`
	Sample  int    `json:"sample"`
	Mode    string `json:"mode"`
	// Version is the content version of the detector checkpoint that was
	// live when the verdict was produced, so shadow training can attribute
	// every verdict to the model that made it.
	Version string  `json:"version,omitempty"`
	Score   float64 `json:"score"`
	Class   string  `json:"class,omitempty"`
	Flagged bool    `json:"flagged"`
	// Coverage is the raw per-sample feature coverage (the ladder smooths
	// its own copy).
	Coverage float64 `json:"coverage"`
	// Shard is the scoring lane the sample was routed to.
	Shard int `json:"shard"`
	// Shed marks a sample dropped by admission control (mode "shed") — the
	// record is the loud half of the shed contract.
	Shed bool `json:"shed,omitempty"`
	// LatencyMs is enqueue-to-verdict latency for scored samples.
	LatencyMs float64 `json:"latency_ms,omitempty"`
	// Error carries the scorer failure for mode "error" records.
	Error string `json:"error,omitempty"`

	// Trace is the sample's stream-scoped trace ID (worker/episode/sample),
	// stamped on every scored and shed record — the join key between the
	// verdict log, the slow-verdict exemplar events in -trace-out, and
	// /debug/verdicts.
	Trace string `json:"trace,omitempty"`
	// QueueMs/BatchMs/ScoreMs break LatencyMs into stages: admission→dequeue
	// (queue wait), dequeue→this item's scoring turn (batch wait), and the
	// scoring work itself. The residue (LatencyMs − sum) is log overhead.
	QueueMs float64 `json:"queue_ms,omitempty"`
	BatchMs float64 `json:"batch_ms,omitempty"`
	ScoreMs float64 `json:"score_ms,omitempty"`
	// Fired is the ascending detector feature slots that fired on this
	// sample — together with Version, everything `perspectron explain` needs
	// to re-derive Score and Attr offline, bit-for-bit.
	Fired []int `json:"fired,omitempty"`
	// Attr holds the top-k weight×bit contributions (largest |weight|
	// first), stamped for flagged samples and a configured fraction of
	// benign ones.
	Attr []perspectron.Contribution `json:"attr,omitempty"`

	// Session and Lost appear on mode "recovery" stamps only: Session is the
	// 1-based process-incarnation number this stamp opens, Lost the verdicts
	// attributed to the crash (or to counted-lossy dropping) in the previous
	// incarnation. Recovery stamps are accounting records, not sample
	// verdicts — readers tallying per-sample outcomes must skip them.
	Session int `json:"session,omitempty"`
	Lost    int `json:"lost,omitempty"`
}

// ModeRecovery marks the accounting stamp the recovery manager writes at
// startup: one per process incarnation, carrying the session number and the
// verdicts lost to the previous crash.
const ModeRecovery = "recovery"

// verdictLog serializes verdict records from all workers onto one buffered
// JSONL writer. flush is called on drain (SIGTERM) and by the supervisor's
// periodic flush loop.
//
// Disk errors never wedge the log: on a write/flush/sync failure the log
// flips to counted-lossy mode — records are dropped and counted (lost) while
// the sink is broken, retried on a jittered backoff cadence, and on recovery
// the stream is re-sealed with a newline so any torn half-record the failed
// flush left on disk parses as one corrupt line scanners skip loudly instead
// of merging into the next record. The first disk error is sticky for
// /healthz (disk_error) even after recovery; recoveries are counted too.
type verdictLog struct {
	mu      sync.Mutex
	bw      *bufio.Writer
	enc     *json.Encoder
	sink    io.Writer
	closer  io.Closer // owned file when opened via openVerdictLog
	n       int       // records accepted and not torn out by a failed flush
	pending int       // records buffered since the last clean flush
	lost    int       // records dropped while lossy or torn out on error
	recov   int       // successful lossy→healthy transitions
	lossy   bool
	diskErr error // first disk error, sticky for health (never cleared)
	ver     string
	lastErr error // first unreported error, cleared by flush (drain contract)

	bo        *retry.Backoff
	nextRetry time.Time
	now       func() time.Time // injectable clock (tests)

	// rec holds the record being encoded: the encoder takes a pointer into
	// the log rather than a copy boxed into an interface, so writing a
	// verdict allocates nothing here.
	rec VerdictRecord
}

func newVerdictLog(w io.Writer) *verdictLog {
	if w == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	return &verdictLog{
		bw:   bw,
		enc:  json.NewEncoder(bw),
		sink: w,
		bo:   retry.NewBackoff(retry.Policy{Base: 100 * time.Millisecond, Max: 5 * time.Second, Jitter: 0.5}, 1),
		now:  time.Now,
	}
}

// openVerdictLog opens (creating if needed, appending) the verdict log file
// at path through the disk-fault injector (site "verdictlog"). The returned
// log owns the file; release it with close after the final flush.
func openVerdictLog(path string) (*verdictLog, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	l := newVerdictLog(diskfaults.WrapFile(diskfaults.SiteVerdictLog, f))
	l.closer = f
	return l, nil
}

// close releases the owned file, if any. It does not flush; callers flush
// first so close errors never mask loss accounting.
func (l *verdictLog) close() error {
	if l == nil || l.closer == nil {
		return nil
	}
	return l.closer.Close()
}

// record appends one verdict line. Nil receivers (no log configured) are
// no-ops, mirroring the telemetry instruments. While the sink is broken the
// record is dropped and counted instead of blocking or wedging the scoring
// hot path; a healthy-path encode failure flips the log to lossy mode.
func (l *verdictLog) record(v VerdictRecord) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.lossy && !l.tryRecoverLocked() {
		l.dropLocked(1)
		return
	}
	l.rec = v
	if err := l.enc.Encode(&l.rec); err != nil {
		l.enterLossyLocked(err, 1)
		return
	}
	l.pending++
	l.n++
	if v.Version != "" {
		l.ver = v.Version
	}
}

// dropLocked counts records lost while the sink is broken.
func (l *verdictLog) dropLocked(k int) {
	l.lost += k
	telemetry.Get().Counter("perspectron_serve_verdicts_lost_total").Add(uint64(k))
}

// enterLossyLocked transitions to counted-lossy mode after a disk error.
// Records buffered since the last clean flush are torn out of the accepted
// count — the failed flush may have left any prefix of them (including half
// a line) on disk, and the recovery seal turns that prefix into corrupt
// lines readers skip, so they are lost, not durable. extra counts the
// in-flight record that triggered the error (0 from flush, 1 from record).
func (l *verdictLog) enterLossyLocked(err error, extra int) {
	l.lossy = true
	l.diskErr = err
	if l.lastErr == nil {
		l.lastErr = err
	}
	l.n -= l.pending
	l.dropLocked(l.pending + extra)
	l.pending = 0
	l.nextRetry = l.now().Add(l.bo.Next())
	telemetry.Get().Counter("perspectron_serve_disk_error_total").Inc()
}

// tryRecoverLocked attempts one lossy→healthy transition if the retry
// backoff has elapsed: discard the dead writer's buffer and sticky error,
// write a newline seal (closing any torn half-record the failed flush left
// on disk), and flush it through. Reports whether the log is healthy again.
func (l *verdictLog) tryRecoverLocked() bool {
	if l.now().Before(l.nextRetry) {
		return false
	}
	l.bw.Reset(l.sink)
	var err error
	if _, err = l.bw.WriteString("\n"); err == nil {
		err = l.flushSinkLocked()
	}
	if err != nil {
		l.nextRetry = l.now().Add(l.bo.Next())
		telemetry.Get().Counter("perspectron_serve_disk_error_total").Inc()
		return false
	}
	l.lossy = false
	l.recov++
	l.bo.Reset()
	telemetry.Get().Counter("perspectron_serve_disk_recovered_total").Inc()
	return true
}

// flushSinkLocked drains the buffer and syncs file-backed sinks to stable
// storage (both *os.File and the fault injector's wrapper expose Sync).
func (l *verdictLog) flushSinkLocked() error {
	if err := l.bw.Flush(); err != nil {
		return err
	}
	if s, ok := l.sink.(interface{ Sync() error }); ok {
		return s.Sync()
	}
	return nil
}

// flush drains the buffer to the underlying writer and syncs it to stable
// storage, returning the first error seen since the last flush — the drain
// path's guarantee that buffered verdicts either reached disk or the failure
// is reported, never silently dropped. In lossy mode it doubles as a retry
// opportunity.
func (l *verdictLog) flush() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.lossy {
		if !l.tryRecoverLocked() {
			err := l.lastErr
			if err == nil {
				err = l.diskErr
			}
			l.lastErr = nil
			return err
		}
	}
	err := l.flushSinkLocked()
	if err != nil {
		l.enterLossyLocked(err, 0)
	} else {
		l.pending = 0
	}
	if l.lastErr != nil {
		err = l.lastErr
		l.lastErr = nil
	}
	return err
}

// err returns the unreported write error without clearing it, for health
// reporting between flushes. The permanently-sticky variant (surviving the
// flush that reports it) is stats().DiskErr, surfaced as the Durable
// block's disk_error.
func (l *verdictLog) err() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastErr
}

// logStats is the verdict log's accounting snapshot: what /healthz shows and
// what the durable state file persists across restarts.
type logStats struct {
	Records    int   // records accepted (net of torn-out buffers)
	Lost       int   // records dropped while lossy or torn out on error
	Recoveries int   // lossy→healthy transitions
	Lossy      bool  // currently dropping
	DiskErr    error // first disk error ever seen (sticky)
}

func (l *verdictLog) stats() logStats {
	if l == nil {
		return logStats{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return logStats{Records: l.n, Lost: l.lost, Recoveries: l.recov, Lossy: l.lossy, DiskErr: l.diskErr}
}

// count returns the number of records written, for health reporting.
func (l *verdictLog) count() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// version returns the model version stamped into the most recent record, for
// the verdict row of /healthz.
func (l *verdictLog) version() string {
	if l == nil {
		return ""
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ver
}
