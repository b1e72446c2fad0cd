// Package shadow is the serving-feedback half of the continual-learning
// loop: a background trainer that tails the serving runtime's JSONL verdict
// log (attributing verdicts to the checkpoint version that produced them),
// collects fresh labelled samples through the corpus store, retrains the
// live detector incrementally in its frozen feature space, and hands each
// candidate to the promotion gate (perspectron.PromoteDetector) — so a
// better-or-equal model atomically replaces the live checkpoint, where the
// serving supervisor's watcher hot-reloads it, and a regressed one is
// preserved for inspection instead of going live.
//
// Alongside training, the loop measures feature-distribution drift: each
// round compares the fresh corpus's per-feature firing rates against the
// lineage's training-time snapshot, smooths the distance with an EWMA, and
// exposes it as the perspectron_shadow_drift gauge, through its own health
// surface, and (via serve.DriftProbe) through the serving /healthz and
// /readyz. Drift past the threshold raises an alarm — the signal that the
// workload distribution has moved and the current training corpus may no
// longer cover it. See docs/MLOPS.md.
package shadow

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"perspectron"
	"perspectron/internal/diskfaults"
	"perspectron/internal/serve"
	"perspectron/internal/telemetry"
)

// Fixed shadow policy: no caller needs other values.
const (
	// goldenSeedOffset shifts the opts seed for the gate corpus to a seed
	// the round-varied training collections never reuse.
	goldenSeedOffset = 9973
	// driftAlpha is the drift EWMA's smoothing factor in (0, 1]; higher
	// follows the newest round faster.
	driftAlpha = 0.3
	// driftThreshold is the smoothed-drift level past which the trainer
	// raises its drift alarm.
	driftThreshold = 0.25
)

// Config configures a shadow Trainer. Zero-valued fields fall back to the
// defaults noted on each field. Candidates are staged at
// DetectorPath+".candidate", and the held-out gate corpus is collected once,
// on first use, from Workloads with the opts seed offset by
// goldenSeedOffset.
type Config struct {
	// DetectorPath is the live detector checkpoint: the model each round
	// resumes from and the promotion gate's target. Required.
	DetectorPath string
	// VerdictLog is the serving runtime's JSONL verdict log to tail
	// (optional; empty disables verdict consumption).
	VerdictLog string
	// StatePath is where the verdict-log tail offset is persisted atomically
	// after each round, so a restarted trainer resumes where it stopped
	// instead of re-tailing (and re-attributing) the whole log from zero
	// (default VerdictLog+".offset"; only used when VerdictLog is set).
	StatePath string

	// Workloads is the fresh-corpus source each round draws from. Required.
	Workloads []perspectron.Workload
	// Opts shapes collection; the seed is varied per round so successive
	// increments train on fresh data.
	Opts perspectron.Options
	// Budget is the incremental epoch budget per round (default
	// perspectron.DefaultIncrementEpochs).
	Budget int

	// Interval is the cadence of Run's rounds (default 30s).
	Interval time.Duration
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.StatePath == "" && out.VerdictLog != "" {
		out.StatePath = out.VerdictLog + ".offset"
	}
	if out.Budget <= 0 {
		out.Budget = perspectron.DefaultIncrementEpochs
	}
	if out.Interval <= 0 {
		out.Interval = 30 * time.Second
	}
	return out
}

// Round is one shadow-training round's outcome.
type Round struct {
	// Round is the 1-based round number.
	Round int
	// VerdictsSeen / CorruptLines account for this round's verdict-log tail;
	// Attributed counts the tailed records that carried a feature-attribution
	// block (the serving layer stamps flagged verdicts, plus a benign sample).
	VerdictsSeen int
	CorruptLines int
	Attributed   int
	// FreshSamples / Epochs / Converged describe the incremental fit.
	FreshSamples int
	Epochs       int
	Converged    bool
	// Drift is the round's raw distribution distance; SmoothedDrift the
	// EWMA after folding it in.
	Drift         float64
	SmoothedDrift float64
	// Promotion is the gate's decision for this round's candidate.
	Promotion *perspectron.Promotion
}

// Trainer runs the shadow loop. Create with New; drive with Run (the loop)
// or RunOnce (a single deterministic round, the form tests use).
type Trainer struct {
	cfg        Config
	started    time.Time
	listenAddr atomic.Pointer[string]

	mu         sync.Mutex
	golden     *perspectron.GoldenSet
	offset     int64 // verdict-log tail position
	rounds     int
	promotions int
	rejections int
	verdicts   int            // verdict records consumed
	corrupt    int            // corrupt verdict lines skipped
	byVersion  map[string]int // verdicts attributed per model version
	attributed int            // verdicts that carried an attribution block
	attrCounts map[string]int // attribution appearances per feature name
	drift      float64        // EWMA
	driftInit  bool
	lastErr    string
	lastRound  *Round
}

// New validates the configuration and returns an idle trainer. The initial
// detector checkpoint must load — a shadow loop with nothing to resume from
// is a configuration error, not something to retry quietly.
func New(cfg Config) (*Trainer, error) {
	cfg = cfg.withDefaults()
	if cfg.DetectorPath == "" {
		return nil, fmt.Errorf("shadow: DetectorPath is required")
	}
	if len(cfg.Workloads) == 0 {
		return nil, fmt.Errorf("shadow: no workloads to train on")
	}
	if _, err := perspectron.LoadFile(cfg.DetectorPath); err != nil {
		return nil, fmt.Errorf("shadow: initial detector checkpoint: %w", err)
	}
	t := &Trainer{
		cfg:        cfg,
		started:    time.Now(),
		byVersion:  map[string]int{},
		attrCounts: map[string]int{},
	}
	if cfg.VerdictLog != "" {
		t.offset = loadOffset(cfg.StatePath, cfg.VerdictLog)
	}
	return t, nil
}

// offsetState is the trainer's durable tail position, persisted atomically
// so a restart resumes the tail instead of re-attributing the whole log.
type offsetState struct {
	Offset int64 `json:"offset"`
}

// loadOffset restores the persisted tail offset. Anything wrong — missing
// or corrupt state, a negative value, or an offset past the current log's
// end (the log was rotated or replaced since the save) — restarts the tail
// from zero; the verdict scanner's corrupt-line tolerance makes a re-read
// safe, just redundant. Offsets only ever land on complete-line boundaries,
// so a crash-repair truncation of a torn tail never invalidates one.
func loadOffset(statePath, logPath string) int64 {
	b, err := os.ReadFile(statePath)
	if err != nil {
		return 0
	}
	var st offsetState
	if json.Unmarshal(b, &st) != nil || st.Offset < 0 {
		return 0
	}
	if fi, err := os.Stat(logPath); err == nil && st.Offset > fi.Size() {
		telemetry.Get().Counter("perspectron_shadow_offset_resets_total").Inc()
		return 0
	}
	return st.Offset
}

// saveOffset persists the tail offset atomically (site "shadowstate").
func saveOffset(statePath string, off int64) error {
	return diskfaults.WriteFileAtomic(diskfaults.SiteShadowState, statePath, func(w io.Writer) error {
		return json.NewEncoder(w).Encode(offsetState{Offset: off})
	})
}

// SetListenAddr records the bound metrics/health address for the standalone
// health surface's self-discovery, mirroring the serving supervisor's. Safe
// to call concurrently with Health.
func (t *Trainer) SetListenAddr(addr string) {
	if addr == "" {
		return
	}
	t.listenAddr.Store(&addr)
}

// Drift returns the smoothed drift EWMA and whether it is past the alarm
// threshold — the serve.DriftProbe shape, for wiring into a supervisor's
// health surface.
func (t *Trainer) Drift() (drift float64, alarm bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.drift, t.driftInit && t.drift > driftThreshold
}

// Run executes rounds every Interval until ctx ends. Round errors are
// recorded (health surfaces them) and the loop continues — a transient
// collection failure must not kill the background trainer.
func (t *Trainer) Run(ctx context.Context) error {
	tick := time.NewTicker(t.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
			if _, err := t.RunOnce(ctx); err != nil && ctx.Err() == nil {
				fmt.Fprintf(os.Stderr, "shadow: round failed: %v\n", err)
			}
		}
	}
}

// RunOnce executes one complete round: tail the verdict log, collect a
// fresh corpus (round-varied seed), retrain incrementally from the live
// checkpoint, update the drift EWMA, stage the candidate, and run the
// promotion gate.
func (t *Trainer) RunOnce(ctx context.Context) (Round, error) {
	t.mu.Lock()
	t.rounds++
	r := Round{Round: t.rounds}
	offset := t.offset
	t.mu.Unlock()
	reg := telemetry.Get()
	fail := func(err error) (Round, error) {
		t.mu.Lock()
		t.lastErr = err.Error()
		t.mu.Unlock()
		reg.Counter(telemetry.Name("perspectron_shadow_rounds_total", "result", "error")).Inc()
		return r, err
	}
	if err := ctx.Err(); err != nil {
		return fail(err)
	}

	// 1. Tail the verdict log: every complete record is attributed to the
	// model version that produced it, so operators can see which generation
	// each verdict came from even across hot-reloads mid-round. Records the
	// forensics layer stamped with per-feature attributions also feed the
	// drift context: which features the live model is actually leaning on in
	// production, set against the distribution drift measured from corpus
	// firing rates.
	if t.cfg.VerdictLog != "" {
		recs, corrupt, next, err := serve.ReadVerdictLog(t.cfg.VerdictLog, offset)
		if err != nil {
			return fail(fmt.Errorf("shadow: tailing verdict log: %w", err))
		}
		r.VerdictsSeen, r.CorruptLines = len(recs), corrupt
		t.mu.Lock()
		t.offset = next
		t.verdicts += len(recs)
		t.corrupt += corrupt
		for _, rec := range recs {
			if rec.Version != "" {
				t.byVersion[rec.Version]++
			}
			if len(rec.Attr) > 0 {
				r.Attributed++
				t.attributed++
				for _, c := range rec.Attr {
					t.attrCounts[c.Feature]++
				}
			}
		}
		t.mu.Unlock()
		// Persist the advanced offset before doing anything slow: training
		// can take a while, and a crash mid-round must not rewind the tail
		// past verdicts already attributed. Failure is counted, not fatal —
		// the offset file is durability insurance, the worst case without it
		// is a redundant re-tail.
		if t.cfg.StatePath != "" && next != offset {
			if err := saveOffset(t.cfg.StatePath, next); err != nil {
				reg.Counter("perspectron_shadow_offset_save_errors_total").Inc()
			}
		}
	}

	// 2. Resume from the live checkpoint — whatever the gate last promoted,
	// which may be newer than anything this trainer produced.
	live, err := perspectron.LoadFile(t.cfg.DetectorPath)
	if err != nil {
		return fail(fmt.Errorf("shadow: loading live detector: %w", err))
	}

	// 3. Golden corpus, collected once and frozen across rounds.
	golden, err := t.goldenSet()
	if err != nil {
		return fail(err)
	}

	// 4. Fresh corpus + incremental fit. The round-varied seed keeps every
	// round's samples distinct from each other and from the golden set.
	opts := t.cfg.Opts
	opts.Seed = t.cfg.Opts.Seed + int64(r.Round)*7919
	cand, stats, err := live.TrainIncrement(t.cfg.Workloads, opts, t.cfg.Budget)
	if err != nil {
		return fail(fmt.Errorf("shadow: incremental fit: %w", err))
	}
	r.FreshSamples, r.Epochs, r.Converged = stats.Samples, stats.Epochs, stats.Converged
	r.Drift = stats.Drift
	r.SmoothedDrift = t.observeDrift(stats.Drift)

	// 5. Stage the candidate and run the gate. Promotion atomically renames
	// over the live path; the serving watcher hot-reloads it on its next
	// poll. Rejection preserves the candidate beside the live file.
	candidatePath := t.cfg.DetectorPath + ".candidate"
	if err := cand.SaveFile(candidatePath); err != nil {
		return fail(fmt.Errorf("shadow: staging candidate: %w", err))
	}
	promo, err := perspectron.PromoteDetector(candidatePath, t.cfg.DetectorPath, golden)
	if err != nil {
		return fail(fmt.Errorf("shadow: promotion gate: %w", err))
	}
	r.Promotion = promo

	t.mu.Lock()
	t.lastErr = ""
	if promo.Promoted {
		t.promotions++
	} else {
		t.rejections++
	}
	rc := r
	t.lastRound = &rc
	t.mu.Unlock()
	result := "rejected"
	if promo.Promoted {
		result = "promoted"
	}
	reg.Counter(telemetry.Name("perspectron_shadow_rounds_total", "result", result)).Inc()
	if reg.HasEventSink() {
		reg.Event("shadow.round", map[string]any{
			"round":     r.Round,
			"samples":   r.FreshSamples,
			"drift":     r.Drift,
			"smoothed":  r.SmoothedDrift,
			"promoted":  promo.Promoted,
			"candidate": promo.CandidateVersion,
			"reason":    promo.Reason,
		})
	}
	return r, nil
}

// goldenSet returns the frozen gate corpus, collecting it on first use.
func (t *Trainer) goldenSet() (*perspectron.GoldenSet, error) {
	t.mu.Lock()
	g := t.golden
	t.mu.Unlock()
	if g != nil {
		return g, nil
	}
	opts := t.cfg.Opts
	opts.Seed += goldenSeedOffset
	g, err := perspectron.CollectGolden(t.cfg.Workloads, opts)
	if err != nil {
		return nil, fmt.Errorf("shadow: collecting golden corpus: %w", err)
	}
	t.mu.Lock()
	t.golden = g
	t.mu.Unlock()
	return g, nil
}

// observeDrift folds one round's raw drift into the EWMA, publishes the
// gauge, and returns the smoothed value.
func (t *Trainer) observeDrift(raw float64) float64 {
	t.mu.Lock()
	if !t.driftInit {
		t.drift, t.driftInit = raw, true
	} else {
		t.drift = driftAlpha*raw + (1-driftAlpha)*t.drift
	}
	smoothed := t.drift
	alarm := smoothed > driftThreshold
	t.mu.Unlock()
	reg := telemetry.Get()
	reg.Gauge("perspectron_shadow_drift").Set(smoothed)
	if alarm {
		reg.Counter("perspectron_shadow_drift_alarms_total").Inc()
	}
	return smoothed
}

// Health is the shadow loop's own health snapshot (the standalone
// `perspectron shadow` serves it; in-process shadow surfaces drift through
// the supervisor's /healthz instead).
type Health struct {
	// Status is "ok", or "degraded" when the drift alarm is up or the last
	// round failed.
	Status string `json:"status"`
	// MetricsAddr is the bound metrics/health listen address (set through
	// SetListenAddr); UptimeSeconds counts from trainer construction.
	MetricsAddr   string  `json:"metrics_addr,omitempty"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Rounds        int     `json:"rounds"`
	Promotions    int     `json:"promotions"`
	Rejections    int     `json:"rejections"`
	// Verdicts / CorruptLines account for the verdict-log tail so far;
	// VerdictsByVersion attributes them to the model versions that produced
	// them.
	Verdicts          int            `json:"verdicts"`
	CorruptLines      int            `json:"corrupt_lines,omitempty"`
	VerdictsByVersion map[string]int `json:"verdicts_by_version,omitempty"`
	// TailOffset is the verdict-log byte position the next round resumes
	// from — the durable value persisted at StatePath.
	TailOffset int64 `json:"tail_offset,omitempty"`
	// AttributedVerdicts counts tailed records that carried a feature
	// attribution; TopAttributed ranks the features those attributions name
	// most often — the production-side context for reading Drift: when drift
	// rises AND the serving model's decisions lean on features whose firing
	// rates moved, retraining urgency is corroborated from both ends.
	AttributedVerdicts int            `json:"attributed_verdicts,omitempty"`
	TopAttributed      []FeatureCount `json:"top_attributed,omitempty"`
	Drift              float64        `json:"drift"`
	DriftAlarm         bool           `json:"drift_alarm"`
	LastError          string         `json:"last_error,omitempty"`
	// LastPromotion summarizes the most recent gate decision.
	LastPromotion *perspectron.Promotion `json:"last_promotion,omitempty"`
}

// FeatureCount is one feature's row in the attribution ranking.
type FeatureCount struct {
	Feature string `json:"feature"`
	Count   int    `json:"count"`
}

// Health snapshots the trainer.
func (t *Trainer) Health() Health {
	t.mu.Lock()
	defer t.mu.Unlock()
	h := Health{
		Status:             "ok",
		UptimeSeconds:      time.Since(t.started).Seconds(),
		Rounds:             t.rounds,
		Promotions:         t.promotions,
		Rejections:         t.rejections,
		Verdicts:           t.verdicts,
		CorruptLines:       t.corrupt,
		TailOffset:         t.offset,
		AttributedVerdicts: t.attributed,
		Drift:              t.drift,
		DriftAlarm:         t.driftInit && t.drift > driftThreshold,
		LastError:          t.lastErr,
	}
	if addr := t.listenAddr.Load(); addr != nil {
		h.MetricsAddr = *addr
	}
	if len(t.byVersion) > 0 {
		h.VerdictsByVersion = make(map[string]int, len(t.byVersion))
		for k, v := range t.byVersion {
			h.VerdictsByVersion[k] = v
		}
	}
	if len(t.attrCounts) > 0 {
		ranked := make([]FeatureCount, 0, len(t.attrCounts))
		for f, n := range t.attrCounts {
			ranked = append(ranked, FeatureCount{Feature: f, Count: n})
		}
		sort.Slice(ranked, func(i, j int) bool {
			if ranked[i].Count != ranked[j].Count {
				return ranked[i].Count > ranked[j].Count
			}
			return ranked[i].Feature < ranked[j].Feature
		})
		if len(ranked) > 8 {
			ranked = ranked[:8]
		}
		h.TopAttributed = ranked
	}
	if t.lastRound != nil {
		h.LastPromotion = t.lastRound.Promotion
	}
	if h.DriftAlarm || h.LastError != "" {
		h.Status = "degraded"
	}
	return h
}

// Handlers returns the standalone health routes, shaped for
// telemetry.Serve's Extra map like the supervisor's.
func (t *Trainer) Handlers() map[string]http.Handler {
	healthz := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(t.Health())
	})
	readyz := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		h := t.Health()
		w.WriteHeader(http.StatusOK)
		if h.Status == "degraded" {
			w.Write([]byte("degraded\n"))
			return
		}
		w.Write([]byte("ok\n"))
	})
	return map[string]http.Handler{"/healthz": healthz, "/readyz": readyz}
}
