package serve

// SLO burn-rate tracking over the two signals an operator pages on: verdict
// latency (enqueue→verdict beyond the target) and shed fraction (admission
// control dropping samples). Each is smoothed as an EWMA of a per-verdict
// bad-event indicator and divided by its error budget — burn > 1 means the
// service is currently spending budget faster than the SLO allows, which
// degrades /healthz and lights the perspectron_serve_slo_*_burn gauges, so
// dashboards and the health surface agree on when the serving path is in
// trouble rather than merely busy.

import (
	"sync"
	"time"

	"perspectron/internal/telemetry"
)

// The latency objective, the error budgets and the burn EWMAs' smoothing
// factor.
const (
	sloLatencyTarget = 50 * time.Millisecond // per-verdict latency objective
	sloLatencyBudget = 0.01                  // tolerated slow-verdict fraction
	sloShedBudget    = 0.01                  // tolerated shed fraction
	sloAlpha         = 0.02                  // EWMA smoothing per observation
)

// sloTracker accumulates the burn state and mirrors it into the two burn
// gauges, resolved once by newSLOTracker.
type sloTracker struct {
	mu       sync.Mutex
	slowEwma float64 // smoothed fraction of verdicts past the target
	shedEwma float64 // smoothed fraction of samples shed
	n        int64

	latencyBurn, shedBurn *telemetry.Gauge
}

func newSLOTracker() *sloTracker {
	reg := telemetry.Get()
	return &sloTracker{
		latencyBurn: reg.Gauge("perspectron_serve_slo_latency_burn"),
		shedBurn:    reg.Gauge("perspectron_serve_slo_shed_burn"),
	}
}

// observe folds one sample outcome into the burn state: its enqueue→verdict
// latency (ignored for sheds) and whether it was shed. Called once per
// verdict record, off the packed scoring inner loop.
func (t *sloTracker) observe(latency time.Duration, shed bool) {
	slow, shedV := 0.0, 0.0
	if shed {
		shedV = 1
	} else if latency > sloLatencyTarget {
		slow = 1
	}
	t.mu.Lock()
	t.slowEwma += sloAlpha * (slow - t.slowEwma)
	t.shedEwma += sloAlpha * (shedV - t.shedEwma)
	t.n++
	latencyBurn := t.slowEwma / sloLatencyBudget
	shedBurn := t.shedEwma / sloShedBudget
	t.mu.Unlock()
	t.latencyBurn.Set(latencyBurn)
	t.shedBurn.Set(shedBurn)
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
	// ShedBudget is the tolerated shed fraction; ShedFraction the smoothed
	// observed one; ShedBurn their ratio.
	ShedBudget   float64 `json:"shed_budget"`
	ShedFraction float64 `json:"shed_fraction"`
	ShedBurn     float64 `json:"shed_burn"`
	// Samples is the number of observations folded in so far.
	Samples int64 `json:"samples"`
	// Breach reports either burn above 1 — this degrades /healthz.
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
		ShedBudget:      sloShedBudget,
		ShedFraction:    t.shedEwma,
		ShedBurn:        t.shedEwma / sloShedBudget,
		Samples:         t.n,
	}
	h.Breach = h.LatencyBurn > 1 || h.ShedBurn > 1
	return h
}
