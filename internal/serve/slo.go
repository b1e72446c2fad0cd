package serve

// SLO burn-rate tracking over the signal an operator pages on: verdict
// latency (admission→verdict beyond the target). It is smoothed as an EWMA
// of a per-verdict slow indicator and divided by its error budget — burn > 1
// means the service is currently spending budget faster than the SLO
// allows, which degrades /healthz and lights the
// perspectron_serve_slo_latency_burn gauge, so dashboards and the health
// surface agree on when the serving path is in trouble rather than merely
// busy. Serve scores every admitted sample and sheds none, so there is no
// shed objective.

import (
	"sync"
	"time"

	"perspectron/internal/telemetry"
)

// The latency objective, its error budget and the burn EWMA's smoothing
// factor.
const (
	sloLatencyTarget = 50 * time.Millisecond // per-verdict latency objective
	sloLatencyBudget = 0.01                  // tolerated slow-verdict fraction
	sloAlpha         = 0.02                  // EWMA smoothing per observation
)

// sloTracker accumulates the burn state and mirrors it into the burn
// gauge, resolved once by newSLOTracker.
type sloTracker struct {
	mu       sync.Mutex
	slowEwma float64 // smoothed fraction of verdicts past the target
	n        int64

	latencyBurn *telemetry.Gauge
}

func newSLOTracker() *sloTracker {
	return &sloTracker{latencyBurn: telemetry.Get().Gauge("perspectron_serve_slo_latency_burn")}
}

// observe folds one verdict's admission→verdict latency into the burn
// state. Called once per verdict record, off the packed scoring inner loop.
func (t *sloTracker) observe(latency time.Duration) {
	slow := 0.0
	if latency > sloLatencyTarget {
		slow = 1
	}
	t.mu.Lock()
	t.slowEwma += sloAlpha * (slow - t.slowEwma)
	t.n++
	latencyBurn := t.slowEwma / sloLatencyBudget
	t.mu.Unlock()
	t.latencyBurn.Set(latencyBurn)
}

// SLOHealth is the burn-rate block on /healthz.
type SLOHealth struct {
	// LatencyTargetMs is the per-verdict latency objective; LatencyBudget
	// the tolerated fraction of verdicts past it.
	LatencyTargetMs float64 `json:"latency_target_ms"`
	LatencyBudget   float64 `json:"latency_budget"`
	// SlowFraction is the smoothed fraction of verdicts past the target;
	// LatencyBurn is SlowFraction/LatencyBudget (burn > 1 = breaching).
	SlowFraction float64 `json:"slow_fraction"`
	LatencyBurn  float64 `json:"latency_burn"`
	// Samples is the number of observations folded in so far.
	Samples int64 `json:"samples"`
	// Breach reports a burn above 1 — this degrades /healthz.
	Breach bool `json:"breach"`
}

// snapshot returns the current burn block.
func (t *sloTracker) snapshot() SLOHealth {
	t.mu.Lock()
	defer t.mu.Unlock()
	h := SLOHealth{
		LatencyTargetMs: float64(sloLatencyTarget) / float64(time.Millisecond),
		LatencyBudget:   sloLatencyBudget,
		SlowFraction:    t.slowEwma,
		LatencyBurn:     t.slowEwma / sloLatencyBudget,
		Samples:         t.n,
	}
	h.Breach = h.LatencyBurn > 1
	return h
}
