// Package serve is the resilient long-running detection service around the
// perspectron models: a supervisor runs one monitor worker per workload
// stream, each worker streaming raw samples through the Session API and
// scoring every sample on its own goroutine, in the call that completed
// it, through the bit-packed RawScorer path. Worker panics are recovered,
// failed episodes restart with jittered exponential backoff behind a
// per-worker circuit breaker, model checkpoints hot-reload from disk with
// rollback to the last good version, and scoring degrades through an
// explicit ladder (classifier → detector → threshold policy) as counter
// coverage drops. Every sample yields exactly one verdict record. Liveness
// and model state are exposed on /healthz and /readyz next to /metrics.
// See docs/SERVICE.md.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"perspectron"
	"perspectron/internal/retry"
	"perspectron/internal/telemetry"
	"perspectron/internal/workload"
)

// Fixed serving policy: no caller needs other values.
const (
	// episodeTimeout bounds one whole episode.
	episodeTimeout = 60 * time.Second
	// classifierFloor and detectorFloor are the smoothed-coverage levels
	// below which the ladder abandons the classifier and the detector;
	// hysteresis is the climb-back margin.
	classifierFloor = 0.9
	detectorFloor   = 0.5
	hysteresis      = 0.05
	// attributionK is how many top weight×bit contributions are stamped
	// into attributed verdict records.
	attributionK = 5
	// flightSize is the flight recorder's capacity: the last attributed
	// verdicts served at /debug/verdicts.
	flightSize = 256
	// slowSample is the total-latency mark past which a verdict emits a
	// slow-sample exemplar event into the telemetry trace stream.
	slowSample = 250 * time.Millisecond

	// The defaults of the unexported Config test seams below.
	//
	// sampleTimeout bounds the gap between samples: a stream that takes
	// longer to reach its next sample fails the episode.
	sampleTimeout = 2 * time.Second
	// breakerThreshold is the consecutive-failure count that opens a
	// worker's circuit breaker; breakerCooldown is how long it stays open
	// before a trial episode.
	breakerThreshold = 3
	breakerCooldown  = 5 * time.Second
)

// Config configures a Supervisor. Zero-valued fields fall back to the
// defaults noted on each field. A field stays exported only if it names a
// deployment input or a caller sets it; every other policy is a constant
// above.
type Config struct {
	// DetectorPath is the detector checkpoint to load and watch. Required.
	DetectorPath string
	// ClassifierPath optionally adds the multi-way classifier (the top
	// rung of the degradation ladder).
	ClassifierPath string

	// Workloads is the set of monitored streams: one worker each. Required.
	Workloads []perspectron.Workload
	// MaxInsts bounds each episode's committed path (default 100k).
	MaxInsts uint64
	// Seed drives per-episode workload randomness, varied per worker and
	// episode.
	Seed int64
	// MaxEpisodes stops each worker after that many completed episodes;
	// 0 means run until the context ends (the service default).
	MaxEpisodes int

	// PollInterval is the checkpoint watcher's cadence (default 500ms;
	// negative disables watching).
	PollInterval time.Duration

	// VerdictLog receives one JSON line per scored sample (nil = none),
	// buffered and flushed on drain. Mutually exclusive with VerdictLogPath.
	VerdictLog io.Writer

	// VerdictLogPath switches the verdict log to crash-safe file mode: the
	// supervisor owns the file, runs startup recovery (torn-tail repair,
	// checkpoint fallback, ledger reconciliation — see recovery.go) before
	// producing, flushes on a cadence, and persists the durable accounting
	// ledger at StatePath (default VerdictLogPath+".state").
	VerdictLogPath string
	StatePath      string
	// LogFlushInterval is the periodic flush+persist cadence in file mode
	// (default 500ms).
	LogFlushInterval time.Duration

	// AttrBenignEvery additionally attributes every Nth non-flagged verdict
	// per worker, so the flight recorder shows what "normal" looks like too
	// (0 disables benign sampling; flagged samples are always attributed).
	// Forensics are always on, so a negative value is a New error.
	AttrBenignEvery int

	// Test seams, set only by this package's tests; zero values fall back
	// to the constants above. detector/classifier inject pre-loaded models
	// that win over the paths for the initial load (the watcher still
	// follows the paths); faults injects counter faults into every
	// episode's machine, the degradation ladder's harness; backoff shapes
	// the delay between failed episodes (default retry.DefaultPolicy with
	// unlimited attempts: the breaker, not the policy, decides when to stop
	// trying).
	detector         *perspectron.Detector
	classifier       *perspectron.Classifier
	faults           *perspectron.FaultConfig
	sampleTimeout    time.Duration
	backoff          retry.Policy
	breakerThreshold int
	breakerCooldown  time.Duration
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.MaxInsts == 0 {
		out.MaxInsts = 100_000
	}
	if out.sampleTimeout <= 0 {
		out.sampleTimeout = sampleTimeout
	}
	if out.backoff == (retry.Policy{}) {
		out.backoff = retry.DefaultPolicy()
	}
	out.backoff.MaxAttempts = 0 // the breaker owns give-up decisions
	if out.breakerThreshold <= 0 {
		out.breakerThreshold = breakerThreshold
	}
	if out.breakerCooldown <= 0 {
		out.breakerCooldown = breakerCooldown
	}
	if out.PollInterval == 0 {
		out.PollInterval = 500 * time.Millisecond
	}
	if out.LogFlushInterval <= 0 {
		out.LogFlushInterval = 500 * time.Millisecond
	}
	out.derivePaths()
	return out
}

// worker is one monitored stream's runtime state.
type worker struct {
	id       int
	name     string
	prog     perspectron.Workload
	breaker  *breaker
	ladder   *ladder
	episodes atomic.Int64 // completed episodes
	failures atomic.Int64 // failed episodes
	restarts atomic.Int64 // goroutine restarts after a panic
	enqueued atomic.Int64 // samples admitted to scoring, one record each
	lastErr  atomic.Pointer[string]

	// sc is the stream's scoring state, touched only by the goroutine
	// running the worker's episodes.
	sc verdictScorer

	// The stream's counters, labeled by its family (see newWorker) rather
	// than its name, so the series count is bounded by the number of
	// workload categories however many streams run. Per-stream detail
	// lives in the verdict log, the flight recorder and /healthz.
	flagged, episodesTotal, episodeFailures, panics, breakerOpen *telemetry.Counter
}

// newWorker returns one stream's runtime state with its counters resolved
// once. family is the stream's workload category, or "benign" for a benign
// stream.
func newWorker(id int, name, family string, lad *ladder) *worker {
	reg := telemetry.Get()
	counter := func(series string) *telemetry.Counter {
		return reg.Counter(telemetry.Name(series, "family", family))
	}
	return &worker{
		id:              id,
		name:            name,
		ladder:          lad,
		sc:              newVerdictScorer(reg),
		flagged:         counter("perspectron_serve_flagged_total"),
		episodesTotal:   counter("perspectron_serve_episodes_total"),
		episodeFailures: counter("perspectron_serve_episode_failures_total"),
		panics:          counter("perspectron_serve_worker_panics_total"),
		breakerOpen:     counter("perspectron_serve_breaker_open_total"),
	}
}

// family is the metric label of a stream with the given workload info.
func family(info workload.Info) string {
	if info.Label == workload.Benign {
		return "benign"
	}
	return info.Category
}

// Supervisor owns the workers, the model pointer, the checkpoint watcher
// and the health surface. Create with New, drive with Run.
type Supervisor struct {
	cfg     Config
	models  atomic.Pointer[Models]
	watch   *watcher
	workers []*worker
	log     *verdictLog

	// flight is the flight recorder: the last flightSize attributed
	// verdict records, served at /debug/verdicts. The verdict log is the
	// durable stream; the recorder is the "what just happened" view an
	// operator opens first, triaging a fresh alert from one curl.
	flight *telemetry.Ring[VerdictRecord]
	slo    *sloTracker // burn-rate state surfaced on /healthz

	// report and base are the crash-safe file mode's recovery outcome and
	// cumulative ledger baseline (nil report = durability off).
	report *RecoveryReport
	base   ServeState

	started    time.Time
	listenAddr atomic.Pointer[string] // bound metrics address, for /healthz self-discovery

	ready      atomic.Bool
	draining   atomic.Bool
	running    atomic.Int64 // workers currently live
	driftProbe atomic.Pointer[DriftProbe]

	// scoreHook (tests only) runs before each sample is scored — the chaos
	// harness's scorer-panic injection point. onVerdict (tests only)
	// observes every verdict record after logging.
	scoreHook func()
	onVerdict func(VerdictRecord)
}

// New loads the initial models from the checkpoint paths and prepares the
// supervisor. It fails fast on a missing or corrupt initial checkpoint —
// rollback needs a last good model to roll back to.
func New(cfg Config) (*Supervisor, error) {
	// Forensics cannot be turned off, so a negative knob is a mistake.
	if cfg.AttrBenignEvery < 0 {
		return nil, fmt.Errorf("serve: negative AttrBenignEvery %d", cfg.AttrBenignEvery)
	}
	cfg = cfg.withDefaults()
	if len(cfg.Workloads) == 0 {
		return nil, fmt.Errorf("serve: no workloads to monitor")
	}
	if cfg.VerdictLogPath != "" && cfg.VerdictLog != nil {
		return nil, fmt.Errorf("serve: VerdictLog and VerdictLogPath are mutually exclusive")
	}
	var report *RecoveryReport
	if cfg.VerdictLogPath != "" {
		var err error
		if report, err = runRecovery(cfg); err != nil {
			return nil, err
		}
	}
	det, cls := cfg.detector, cfg.classifier
	loadedDet, loadedCls := false, false
	if det == nil && cfg.DetectorPath != "" {
		var err error
		if det, err = perspectron.LoadFile(cfg.DetectorPath); err != nil {
			return nil, fmt.Errorf("serve: initial detector checkpoint: %w", err)
		}
		loadedDet = true
	}
	if cls == nil && cfg.ClassifierPath != "" {
		var err error
		if cls, err = perspectron.LoadClassifierFile(cfg.ClassifierPath); err != nil {
			return nil, fmt.Errorf("serve: initial classifier checkpoint: %w", err)
		}
		loadedCls = true
	}
	if det == nil {
		return nil, fmt.Errorf("serve: a detector is required (DetectorPath)")
	}
	var vlog *verdictLog
	if cfg.VerdictLog != nil {
		vlog = newVerdictLog(cfg.VerdictLog)
	}
	if cfg.VerdictLogPath != "" {
		var err error
		if vlog, err = openVerdictLog(cfg.VerdictLogPath); err != nil {
			return nil, fmt.Errorf("serve: opening verdict log: %w", err)
		}
	}
	// The checkpoints we just proved loadable from disk get banked as the
	// last-good fallback chain recovery restores from after corruption.
	// Injected models (tests) prove nothing about the files.
	if loadedDet {
		saveLastGood(cfg.DetectorPath)
	}
	if loadedCls {
		saveLastGood(cfg.ClassifierPath)
	}
	s := &Supervisor{
		cfg:     cfg,
		log:     vlog,
		flight:  telemetry.NewRing[VerdictRecord](flightSize),
		slo:     newSLOTracker(),
		report:  report,
		started: time.Now(),
	}
	if report != nil {
		s.base = report.State
	}
	s.models.Store(&Models{Det: det, Cls: cls})
	if cfg.PollInterval > 0 && (cfg.DetectorPath != "" || cfg.ClassifierPath != "") {
		s.watch = newWatcher(cfg.DetectorPath, cfg.ClassifierPath, &s.models, cfg.PollInterval)
	}
	for i, w := range cfg.Workloads {
		info := w.Info()
		wk := newWorker(i, info.Name, family(info),
			newLadder(classifierFloor, detectorFloor, hysteresis, cls != nil))
		wk.prog = w
		wk.breaker = newBreaker(cfg.breakerThreshold, cfg.breakerCooldown)
		s.workers = append(s.workers, wk)
	}
	return s, nil
}

// Models returns the currently served model pair (the hot-reload target).
func (s *Supervisor) Models() *Models { return s.models.Load() }

// pollNow forces one watcher tick — the deterministic path tests and the
// drain use instead of waiting out PollInterval.
func (s *Supervisor) pollNow() {
	if s.watch != nil {
		s.watch.forcePoll()
		s.watch.tick()
	}
}

// Run starts the watcher and one goroutine per worker, then blocks until
// every worker finishes (MaxEpisodes) or ctx ends. On ctx cancellation it
// drains: workers stop at their next sample, every sample already admitted
// has its verdict logged (scoring is synchronous, so none is in flight), the
// verdict log flushes, and Run returns with zero goroutines left behind.
func (s *Supervisor) Run(ctx context.Context) error {
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var watchWg sync.WaitGroup
	if s.watch != nil {
		watchWg.Add(1)
		go func() {
			defer watchWg.Done()
			s.watch.run(runCtx)
		}()
	}
	// File-mode durability loop: flush the verdict log and persist the
	// accounting ledger on a cadence, so a kill -9 loses at most one
	// interval's verdicts — and those are reconciled as lost_on_crash at the
	// next startup, never silently.
	var flushWg sync.WaitGroup
	if s.cfg.VerdictLogPath != "" {
		flushWg.Add(1)
		go func() {
			defer flushWg.Done()
			t := time.NewTicker(s.cfg.LogFlushInterval)
			defer t.Stop()
			for {
				select {
				case <-runCtx.Done():
					return
				case <-t.C:
					// A flush error flips the log to counted-lossy mode and
					// shows on /healthz; the loop keeps ticking — each tick
					// is also the retry opportunity.
					s.log.flush()
					s.persistState()
				}
			}
		}()
	}
	var workerWg sync.WaitGroup
	for _, w := range s.workers {
		workerWg.Add(1)
		go func(w *worker) {
			defer workerWg.Done()
			s.superviseWorker(runCtx, w)
		}(w)
	}
	s.ready.Store(true)
	defer s.ready.Store(false)

	workersDone := make(chan struct{})
	go func() { workerWg.Wait(); close(workersDone) }()
	select {
	case <-workersDone:
	case <-ctx.Done():
		s.draining.Store(true)
		cancel() // stop workers at their next sample
		<-workersDone
	}
	s.draining.Store(true)
	cancel() // release the watcher and the flush loop
	watchWg.Wait()
	flushWg.Wait()
	flushErr := s.log.flush()
	s.persistState() // final ledger: a clean drain balances exactly
	if cerr := s.log.close(); cerr != nil && flushErr == nil {
		flushErr = cerr
	}
	if flushErr != nil {
		return fmt.Errorf("serve: flushing verdict log: %w", flushErr)
	}
	return ctx.Err()
}

// superviseWorker keeps one worker alive: the inner loop runs episodes with
// breaker + backoff; a panic that escapes an episode (a bug in the episode
// loop itself: workload and scoring panics are recovered inside the
// episode) is recovered here and the loop restarts.
func (s *Supervisor) superviseWorker(ctx context.Context, w *worker) {
	reg := telemetry.Get()
	s.running.Add(1)
	defer s.running.Add(-1)
	reg.Gauge("perspectron_serve_workers_running").Add(1)
	defer reg.Gauge("perspectron_serve_workers_running").Add(-1)
	for ctx.Err() == nil {
		if s.runEpisodeLoop(ctx, w) {
			return // loop ended normally (ctx done or MaxEpisodes)
		}
		// A panic escaped: count the restart and re-enter the loop.
		w.restarts.Add(1)
		w.panics.Inc()
	}
}

// runEpisodeLoop drives episodes until ctx ends or MaxEpisodes completes,
// reporting true on a normal exit and false when a panic unwound it.
func (s *Supervisor) runEpisodeLoop(ctx context.Context, w *worker) (normal bool) {
	defer func() {
		if r := recover(); r != nil {
			msg := fmt.Sprintf("worker panic: %v", r)
			w.lastErr.Store(&msg)
			normal = false
		}
	}()
	bo := retry.NewBackoff(s.cfg.backoff, s.cfg.Seed*31_337+int64(w.id))
	episode := int(w.episodes.Load() + w.failures.Load()) // resume numbering after a panic restart
	for ctx.Err() == nil {
		if s.cfg.MaxEpisodes > 0 && w.episodes.Load() >= int64(s.cfg.MaxEpisodes) {
			return true
		}
		if !w.breaker.allow() {
			// Breaker open: sleep a cooldown slice, not the whole cooldown,
			// so drain stays prompt.
			if !sleepCtx(ctx, s.cfg.breakerCooldown/4+time.Millisecond) {
				return true
			}
			continue
		}
		err := s.episode(ctx, w, episode)
		episode++
		if err == nil {
			w.episodes.Add(1)
			w.breaker.success()
			bo.Reset()
			w.episodesTotal.Inc()
			continue
		}
		if ctx.Err() != nil {
			return true // drain, not a failure
		}
		w.failures.Add(1)
		msg := err.Error()
		w.lastErr.Store(&msg)
		w.episodeFailures.Inc()
		if w.breaker.failure() {
			w.breakerOpen.Inc()
		}
		if !retry.Sleep(ctx, "serve.episode", bo.Next()) {
			return true
		}
	}
	return true
}

// episode runs the workload once end to end and scores each raw sample
// on this goroutine, in the NextRaw call that completed it: no queue
// stands between a sample and its verdict. A scoring panic still yields a
// verdict record (mode "error") and counts against the worker's breaker;
// once the breaker opens the episode fails, so the episode loop's backoff
// and cooldown apply. Workload panics surface as errors through the
// session; a sample that takes longer than sampleTimeout to simulate,
// counted from the previous verdict or from the run's start, fails the
// episode.
func (s *Supervisor) episode(ctx context.Context, w *worker, episode int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("episode panic: %v", r)
		}
	}()
	epCtx, cancel := context.WithTimeout(ctx, episodeTimeout)
	defer cancel()

	mdl := s.models.Load() // the session's models; each verdict loads the live ones
	sess, err := perspectron.NewSession(epCtx, mdl.Det, mdl.Cls, perspectron.SessionConfig{
		Workload: w.prog,
		MaxInsts: s.cfg.MaxInsts,
		Seed:     s.cfg.Seed + int64(w.id)*10_007 + int64(episode)*101,
		Faults:   s.cfg.faults,
	})
	if err != nil {
		return err
	}
	defer sess.Close()
	// Build the worker's scorer before the first sample, so no verdict
	// pays for it; a hot reload still rebuilds it at the next sample.
	if _, err := w.sc.scorerFor(mdl); err != nil {
		return err
	}

	start := time.Now()
	for {
		rs, ok := sess.NextRaw(epCtx)
		if !ok && epCtx.Err() != nil {
			return fmt.Errorf("episode deadline: %w", epCtx.Err())
		}
		// One clock read serves the stall check and the verdict's
		// admission stamp.
		now := time.Now()
		if now.Sub(start) > s.cfg.sampleTimeout {
			return fmt.Errorf("sample stalled past %s", s.cfg.sampleTimeout)
		}
		if !ok {
			break // run genuinely ended
		}
		var scored bool
		if start, scored = s.scoreItem(w, episode, rs, now); !scored && w.breaker.failure() {
			w.breakerOpen.Inc()
			return errScorerBreaker
		}
	}
	return sess.Err()
}

// errScorerBreaker fails an episode whose scoring panics opened the
// worker's breaker.
var errScorerBreaker = errors.New("scorer panics opened the breaker")

// sleepCtx sleeps d or until ctx ends, reporting false on cancellation.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
