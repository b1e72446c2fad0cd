// Package retry is the repository's one backoff implementation: seeded,
// jittered exponential backoff for the serving runtime (internal/serve
// restarting failed episodes and its checkpoint watcher backing off).
// Sequences are deterministic for a fixed (Policy, seed) pair, so tests
// replay exactly; jitter decorrelates real deployments where many workers
// fail together.
//
// Every backoff sleep is recorded in the process-wide telemetry registry
// under the caller's op label:
//
//	perspectron_retry_backoff_seconds{op=...}
package retry

import (
	"context"
	"math/rand"
	"time"

	"perspectron/internal/telemetry"
)

// Policy shapes a backoff sequence. The zero value is usable: withDefaults
// fills in a 5ms base doubling to a 1s cap, with no jitter.
type Policy struct {
	// Base is the nominal first backoff; each subsequent backoff doubles
	// up to Max.
	Base time.Duration
	// Max caps a single backoff.
	Max time.Duration
	// Jitter spreads each backoff uniformly over [1-Jitter, 1+Jitter] times
	// its nominal value; 0 disables jitter, values are clamped to [0, 1].
	Jitter float64
}

// DefaultPolicy is a general-purpose supervisor policy: 50ms base, 5s cap,
// doubling, ±50% jitter.
func DefaultPolicy() Policy {
	return Policy{Base: 50 * time.Millisecond, Max: 5 * time.Second, Jitter: 0.5}
}

func (p Policy) withDefaults() Policy {
	if p.Base <= 0 {
		p.Base = 5 * time.Millisecond
	}
	if p.Max <= 0 {
		p.Max = time.Second
	}
	if p.Max < p.Base {
		p.Max = p.Base
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	}
	if p.Jitter > 1 {
		p.Jitter = 1
	}
	return p
}

// Backoff iterates a policy's sleep sequence. It is deterministic for a
// fixed (policy, seed): the jitter draws come from a private seeded
// generator, never the global one. Not safe for concurrent use; give each
// worker its own Backoff.
type Backoff struct {
	p       Policy
	rng     *rand.Rand
	attempt int
}

// NewBackoff returns a fresh iterator over p's sequence, jittered by seed.
func NewBackoff(p Policy, seed int64) *Backoff {
	return &Backoff{p: p.withDefaults(), rng: rand.New(rand.NewSource(seed))}
}

// Next returns the next backoff in the sequence: Base·2^n capped at Max,
// spread by the jitter fraction. Each call advances the sequence.
func (b *Backoff) Next() time.Duration {
	d := float64(b.p.Base)
	for i := 0; i < b.attempt; i++ {
		d *= 2
		if d >= float64(b.p.Max) {
			d = float64(b.p.Max)
			break
		}
	}
	if d > float64(b.p.Max) {
		d = float64(b.p.Max)
	}
	b.attempt++
	if b.p.Jitter > 0 {
		d *= 1 + b.p.Jitter*(2*b.rng.Float64()-1)
	}
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}

// Reset rewinds the sequence to the first backoff (the jitter stream keeps
// advancing, so reset sequences stay decorrelated). Supervisors call it
// after a success so the next failure starts cheap again.
func (b *Backoff) Reset() { b.attempt = 0 }

// Sleep blocks for d or until ctx ends, whichever comes first, and reports
// whether the full backoff elapsed. It records the slept duration in the
// op's backoff histogram.
func Sleep(ctx context.Context, op string, d time.Duration) bool {
	reg := telemetry.Get()
	if d <= 0 {
		return ctx.Err() == nil
	}
	start := time.Now()
	t := time.NewTimer(d)
	defer t.Stop()
	defer func() {
		reg.Histogram(telemetry.Name("perspectron_retry_backoff_seconds", "op", op),
			telemetry.DurationBuckets).Observe(time.Since(start).Seconds())
	}()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
