package serve

import (
	"encoding/json"
	"net/http"
	"time"

	"perspectron/internal/telemetry"
)

// WorkerHealth is one worker's row in the /healthz report.
type WorkerHealth struct {
	Worker   string  `json:"worker"`
	Mode     string  `json:"mode"`
	Breaker  string  `json:"breaker"`
	Coverage float64 `json:"coverage"` // smoothed (EWMA) feature coverage
	Episodes int64   `json:"episodes"`
	Failures int64   `json:"failures"`
	Restarts int64   `json:"restarts"` // goroutine restarts after a panic
	Sheds    int64   `json:"sheds"`    // samples shed by admission control
	LastErr  string  `json:"last_error,omitempty"`
}

// ShardHealth is one scoring shard's row in the /healthz report.
type ShardHealth struct {
	Shard    int     `json:"shard"`
	Depth    int     `json:"depth"`    // samples queued now
	Capacity int     `json:"capacity"` // ring buffer cap
	Pressure float64 `json:"pressure"` // smoothed (EWMA) depth/capacity
	LoadMode string  `json:"load_mode"`
	Breaker  string  `json:"breaker"`
	Down     bool    `json:"down"` // ring routes around a down shard
	Enqueued int64   `json:"enqueued"`
	Scored   int64   `json:"scored"`
	Shed     int64   `json:"shed"`
	Panics   int64   `json:"panics"`
}

// Health is the /healthz body: overall status, the live model versions, the
// hot-reload ledger, per-worker and per-shard state.
type Health struct {
	// Status is "ok" (every worker on its top rung, breakers closed, no
	// shard down or load-degraded), "degraded" (any worker or shard on a
	// lower rung, an open breaker, a down shard, a rolled-back reload, or a
	// failing verdict log), or "draining" (shutdown in progress).
	Status string `json:"status"`
	Ready  bool   `json:"ready"`
	// MetricsAddr is the bound metrics/health listen address — the
	// self-discovery answer for processes started with `-metrics-addr :0`,
	// whose real port was previously visible only on stderr.
	MetricsAddr string `json:"metrics_addr,omitempty"`
	// UptimeSeconds counts from supervisor construction.
	UptimeSeconds     float64 `json:"uptime_seconds"`
	DetectorVersion   string  `json:"detector_version"`
	ClassifierVersion string  `json:"classifier_version"`
	Reloads           int     `json:"reloads"`
	Rollbacks         int     `json:"rollbacks"`
	ReloadError       string  `json:"reload_error,omitempty"`
	LastReloadAt      string  `json:"last_reload_at,omitempty"`
	Verdicts          int     `json:"verdicts"`
	// VerdictVersion is the detector version stamped into the most recent
	// verdict record — normally DetectorVersion, trailing it briefly around
	// a hot-reload.
	VerdictVersion string `json:"verdict_version,omitempty"`
	LogError       string `json:"log_error,omitempty"`
	// ShadowDrift is the shadow trainer's smoothed feature-distribution
	// drift (present only when a shadow loop is attached); DriftAlarm marks
	// it past the configured threshold and degrades the service status.
	ShadowDrift float64 `json:"shadow_drift,omitempty"`
	DriftAlarm  bool    `json:"drift_alarm,omitempty"`
	// Durable is the crash-safe file mode's accounting block (nil when
	// serving without VerdictLogPath): the cumulative ledger, the log's disk
	// state — a sticky disk_error or active lossy mode degrades Status —
	// and what the last startup recovery found.
	Durable *DurableHealth `json:"durable,omitempty"`
	// SLO is the burn-rate block; a breach degrades Status.
	SLO     SLOHealth      `json:"slo"`
	Workers []WorkerHealth `json:"workers"`
	Shards  []ShardHealth  `json:"shards"`
}

// DriftProbe reports a shadow trainer's current smoothed drift and whether
// it is past the alarm threshold — the hook an in-process shadow loop
// registers so /healthz and /readyz reflect training-distribution drift.
type DriftProbe func() (drift float64, alarm bool)

// SetDriftProbe attaches (or, with nil, detaches) a drift probe. Safe to
// call concurrently with Health.
func (s *Supervisor) SetDriftProbe(p DriftProbe) {
	if p == nil {
		s.driftProbe.Store(nil)
		return
	}
	s.driftProbe.Store(&p)
}

// SetListenAddr records the bound metrics/health address for /healthz
// self-discovery (the CLI calls it once the telemetry server is up). Safe
// to call concurrently with Health.
func (s *Supervisor) SetListenAddr(addr string) {
	if addr == "" {
		return
	}
	s.listenAddr.Store(&addr)
}

// Health snapshots the supervisor for the health endpoints (and tests).
func (s *Supervisor) Health() Health {
	h := Health{
		Status:         "ok",
		Ready:          s.ready.Load(),
		UptimeSeconds:  time.Since(s.started).Seconds(),
		Verdicts:       s.log.count(),
		VerdictVersion: s.log.version(),
	}
	if addr := s.listenAddr.Load(); addr != nil {
		h.MetricsAddr = *addr
	}
	h.DetectorVersion, h.ClassifierVersion = s.models.Load().Versions()
	if s.watch != nil {
		var lastOk time.Time
		h.Reloads, h.Rollbacks, h.ReloadError, lastOk = s.watch.snapshot()
		if !lastOk.IsZero() {
			h.LastReloadAt = lastOk.UTC().Format(time.RFC3339)
		}
	}
	if err := s.log.err(); err != nil {
		h.LogError = err.Error()
	}
	if p := s.driftProbe.Load(); p != nil {
		h.ShadowDrift, h.DriftAlarm = (*p)()
	}
	h.Durable = s.durableSnapshot()
	h.SLO = s.slo.snapshot()
	degraded := h.ReloadError != "" || h.LogError != "" || h.DriftAlarm ||
		h.SLO.Breach ||
		(h.Durable != nil && (h.Durable.Lossy || h.Durable.DiskError != ""))
	topMode := "detector"
	if s.models.Load().Cls != nil {
		topMode = "classifier"
	}
	for _, w := range s.workers {
		mode, cov := w.ladder.snapshot()
		brk, _, _ := w.breaker.snapshot()
		wh := WorkerHealth{
			Worker:   w.name,
			Mode:     mode.String(),
			Breaker:  brk,
			Coverage: cov,
			Episodes: w.episodes.Load(),
			Failures: w.failures.Load(),
			Restarts: w.restarts.Load(),
			Sheds:    w.sheds.Load(),
		}
		if e := w.lastErr.Load(); e != nil {
			wh.LastErr = *e
		}
		if wh.Mode != topMode || wh.Breaker != "closed" {
			degraded = true
		}
		h.Workers = append(h.Workers, wh)
	}
	for _, sh := range s.shards {
		mode, headroom := sh.load.snapshot()
		brk, _, _ := sh.breaker.snapshot()
		shh := ShardHealth{
			Shard:    sh.id,
			Depth:    sh.depth(),
			Capacity: sh.cap,
			Pressure: 1 - headroom, // the load ladder smooths headroom
			LoadMode: mode.String(),
			Breaker:  brk,
			Down:     sh.down.Load(),
			Enqueued: sh.enqueued.Load(),
			Scored:   sh.scored.Load(),
			Shed:     sh.shed.Load(),
			Panics:   sh.panics.Load(),
		}
		if shh.Down || shh.LoadMode != topMode || shh.Breaker != "closed" {
			degraded = true
		}
		h.Shards = append(h.Shards, shh)
	}
	if degraded {
		h.Status = "degraded"
	}
	if s.draining.Load() {
		h.Status = "draining"
	}
	return h
}

// Healthz serves the Health snapshot as JSON. It always answers 200 once
// the process is up — liveness is "the supervisor responds", the Status
// field carries the nuance — except while draining, which answers 503 so
// load balancers stop routing to a terminating instance.
func (s *Supervisor) Healthz() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		h := s.Health()
		w.Header().Set("Content-Type", "application/json")
		if h.Status == "draining" {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(h)
	})
}

// Readyz answers 200 once the initial checkpoints are loaded and the workers
// are running, 503 before that and while draining. The body is truthful
// about partial health: "ok" only when nothing is degraded, "degraded" when
// the service is up but shedding, load-degraded, or running on a lower
// ladder rung — still 200, because degraded-but-serving is exactly what the
// overload machinery exists to provide, but callers that care can read the
// body (or /healthz) instead of trusting the status code alone.
func (s *Supervisor) Readyz() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if s.ready.Load() && !s.draining.Load() {
			w.WriteHeader(http.StatusOK)
			if s.Health().Status == "degraded" {
				w.Write([]byte("degraded\n"))
			} else {
				w.Write([]byte("ok\n"))
			}
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte("not ready\n"))
	})
}

// Handlers returns the health routes keyed by pattern, shaped for
// telemetry.Serve / telemetrycli's Extra map, with the flight
// recorder's /debug/verdicts.
func (s *Supervisor) Handlers() map[string]http.Handler {
	return map[string]http.Handler{
		"/healthz":        s.Healthz(),
		"/readyz":         s.Readyz(),
		"/debug/verdicts": telemetry.RingHandler(s.flight),
	}
}
