package serve

import (
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"perspectron"
	"perspectron/internal/retry"
	"perspectron/internal/telemetry"
)

// Models is the immutable pair of scoring models a supervisor serves with.
// Hot-reload swaps the whole pair atomically; sessions in flight keep the
// pointer they started with, so a reload never changes a model under a
// running episode.
type Models struct {
	Det *perspectron.Detector
	Cls *perspectron.Classifier
}

// Versions returns the content versions for health reporting.
func (m *Models) Versions() (det, cls string) {
	det, cls = "none", "none"
	if m.Det != nil {
		det = m.Det.Version()
	}
	if m.Cls != nil {
		cls = m.Cls.Version()
	}
	return det, cls
}

// fileSig is the cheap change signal the watcher polls: a checkpoint write
// (atomic rename) moves both fields.
type fileSig struct {
	mod  time.Time
	size int64
}

func sigOf(path string) (fileSig, bool) {
	st, err := os.Stat(path)
	if err != nil {
		return fileSig{}, false
	}
	return fileSig{mod: st.ModTime(), size: st.Size()}, true
}

// watcher polls the checkpoint files and hot-swaps the supervisor's model
// pointer. A new file that fails to load — torn write, checksum mismatch,
// structural validation — is NOT swapped in: the last good models stay live
// (the rollback path), the failure is counted and surfaced in /healthz, and
// the watcher keeps polling so a subsequent good write recovers. Repeated
// stat or load failures back the poll off with seeded jitter (up to 16×
// PollInterval) so a persistently corrupt or vanishing file does not
// busy-spin the watcher; the first success snaps the cadence back.
type watcher struct {
	detPath string
	clsPath string
	models  *atomic.Pointer[Models]
	poll    time.Duration

	mu         sync.Mutex
	detSig     fileSig
	clsSig     fileSig
	lastError  string    // most recent failed reload, "" when healthy
	lastOkAt   time.Time // most recent successful swap
	reloads    int
	rollbacks  int
	bo         *retry.Backoff
	failStreak int       // consecutive failed ticks (stat or load)
	nextTry    time.Time // ticks before this are skipped (backoff)
}

func newWatcher(detPath, clsPath string, models *atomic.Pointer[Models], poll time.Duration) *watcher {
	w := &watcher{detPath: detPath, clsPath: clsPath, models: models, poll: poll}
	w.bo = retry.NewBackoff(retry.Policy{
		Base: poll, Max: 16 * poll, Factor: 2, Jitter: 0.5,
	}, int64(hashKey(detPath+"\x00"+clsPath)))
	if detPath != "" {
		w.detSig, _ = sigOf(detPath)
	}
	if clsPath != "" {
		w.clsSig, _ = sigOf(clsPath)
	}
	return w
}

// run polls until ctx ends. Each tick re-checks both files and applies at
// most one swap.
func (w *watcher) run(ctx context.Context) {
	t := time.NewTicker(w.poll)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			w.tick()
		}
	}
}

// tick is one poll round, exported to the supervisor's tests via the
// supervisor itself (Supervisor.pollNow). Ticks that land inside a failure
// backoff window are skipped.
func (w *watcher) tick() {
	w.mu.Lock()
	if !w.nextTry.IsZero() && time.Now().Before(w.nextTry) {
		w.mu.Unlock()
		return
	}
	w.mu.Unlock()
	reg := telemetry.Get()
	changedDet, detSig, okDet := w.changed(w.detPath, &w.detSig)
	changedCls, clsSig, okCls := w.changed(w.clsPath, &w.clsSig)
	if !changedDet && !changedCls {
		w.mu.Lock()
		defer w.mu.Unlock()
		if !okDet || !okCls {
			// A watched checkpoint cannot be stat'ed (deleted, permissions):
			// back off so the failure doesn't busy-spin the poll loop.
			w.backoffLocked(reg)
		} else {
			w.recoverLocked()
		}
		return
	}
	cur := w.models.Load()
	next := &Models{Det: cur.Det, Cls: cur.Cls}
	var err error
	if changedDet {
		var det *perspectron.Detector
		if det, err = perspectron.LoadFile(w.detPath); err == nil {
			next.Det = det
		}
	}
	if err == nil && changedCls {
		var cls *perspectron.Classifier
		if cls, err = perspectron.LoadClassifierFile(w.clsPath); err == nil {
			next.Cls = cls
		}
	}

	w.mu.Lock()
	defer w.mu.Unlock()
	// Either way the signatures advance: a corrupt file is not retried every
	// tick, only when it changes again.
	if changedDet {
		w.detSig = detSig
	}
	if changedCls {
		w.clsSig = clsSig
	}
	if err != nil {
		w.rollbacks++
		w.lastError = err.Error()
		w.backoffLocked(reg)
		reg.Counter(telemetry.Name("perspectron_serve_reloads_total", "result", "rollback")).Inc()
		fmt.Fprintf(os.Stderr, "serve: checkpoint reload failed, keeping last good models: %v\n", err)
		return
	}
	w.models.Store(next)
	w.reloads++
	w.lastError = ""
	w.lastOkAt = time.Now()
	w.recoverLocked()
	// The new files just proved loadable: rotate them into the last-good
	// fallback chain startup recovery restores from.
	if changedDet {
		saveLastGood(w.detPath)
	}
	if changedCls {
		saveLastGood(w.clsPath)
	}
	det, cls := next.Versions()
	reg.Counter(telemetry.Name("perspectron_serve_reloads_total", "result", "ok")).Inc()
	if reg.HasEventSink() {
		reg.Event("serve.reload", map[string]any{"detector": det, "classifier": cls})
	}
	fmt.Fprintf(os.Stderr, "serve: hot-reloaded models (detector %s, classifier %s)\n", det, cls)
}

// backoffLocked records one failed tick and schedules the next attempt with
// jittered exponential backoff. Caller holds w.mu.
func (w *watcher) backoffLocked(reg *telemetry.Registry) {
	w.failStreak++
	w.nextTry = time.Now().Add(w.bo.Next())
	reg.Counter(telemetry.Name("perspectron_serve_watch_backoff_total", "path", w.detPath)).Inc()
}

// recoverLocked snaps the poll cadence back after a healthy tick. Caller
// holds w.mu.
func (w *watcher) recoverLocked() {
	w.failStreak = 0
	w.nextTry = time.Time{}
	w.bo.Reset()
}

// forcePoll clears any pending backoff window so the next tick runs — the
// deterministic hook Supervisor.pollNow uses.
func (w *watcher) forcePoll() {
	w.mu.Lock()
	w.nextTry = time.Time{}
	w.mu.Unlock()
}

// changed stats path against last and reports whether it moved, returning
// the fresh signature and whether the stat itself succeeded. An empty path
// reports no change and a healthy stat.
func (w *watcher) changed(path string, last *fileSig) (bool, fileSig, bool) {
	if path == "" {
		return false, fileSig{}, true
	}
	sig, ok := sigOf(path)
	if !ok {
		return false, *last, false
	}
	w.mu.Lock()
	prev := *last
	w.mu.Unlock()
	return sig != prev, sig, true
}

// snapshot returns reload health for /healthz.
func (w *watcher) snapshot() (reloads, rollbacks int, lastError string, lastOkAt time.Time) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.reloads, w.rollbacks, w.lastError, w.lastOkAt
}
