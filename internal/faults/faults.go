// Package faults provides composable counter-level fault models for the
// simulated machine's sampled statistics vectors, plus a deterministic
// seeded schedule that makes fault-injection experiments reproducible.
//
// The paper's evasion argument (§VI) is that PerSpectron's replicated
// detectors keep working when part of the signature is suppressed; related
// counter-based detectors (MAD-EN, Ahmad et al.) report sensor noise and
// sampling disruption as the dominant deployment failure mode. This package
// models exactly that axis: counters can drop out (missing values), stick at
// zero or at their saturation value, pick up Gaussian noise, the sampling
// interval can jitter, and an entire pipeline component can black out.
//
// Missing values are encoded as NaN; the detector's degraded scoring mode
// (see docs/FAULTS.md) masks them and renormalizes the perceptron margin
// over the surviving weights.
package faults

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"perspectron/internal/stats"
)

// Missing returns the sentinel used for a counter value suppressed by a
// fault (NaN).
func Missing() float64 { return math.NaN() }

// IsMissing reports whether v is a suppressed counter value.
func IsMissing(v float64) bool { return math.IsNaN(v) }

// Model is one composable counter-level fault. Apply mutates a sampled
// counter-delta vector in place. index is the sampling-interval number; rng
// is deterministically seeded per (schedule seed, model, sample) for
// per-sample randomness; salt is stable per (schedule seed, model) for
// faults that must persist across samples (stuck-at).
type Model interface {
	Name() string
	Apply(index int, vec []float64, rng *rand.Rand, salt uint64)
}

// Dropout suppresses each counter value independently with probability Rate
// per sample — the transient sensor-read failure model.
type Dropout struct{ Rate float64 }

// Name implements Model.
func (d Dropout) Name() string { return fmt.Sprintf("dropout(%.2f)", d.Rate) }

// Apply implements Model.
func (d Dropout) Apply(_ int, vec []float64, rng *rand.Rand, _ uint64) {
	for i := range vec {
		if rng.Float64() < d.Rate {
			vec[i] = Missing()
		}
	}
}

// StuckAtZero pins a persistent fraction Frac of counters to zero for the
// whole run — a dead sensor. The stuck subset is a deterministic function of
// the schedule seed, so it is identical in every sample.
type StuckAtZero struct{ Frac float64 }

// Name implements Model.
func (s StuckAtZero) Name() string { return fmt.Sprintf("stuck0(%.2f)", s.Frac) }

// Apply implements Model.
func (s StuckAtZero) Apply(_ int, vec []float64, _ *rand.Rand, salt uint64) {
	for i := range vec {
		if unit(salt, uint64(i)) < s.Frac {
			vec[i] = 0
		}
	}
}

// StuckAtMax pins a persistent fraction Frac of counters to Value — a
// saturated/railed sensor. Value <= 0 defaults to 2^32-1, a 32-bit
// hardware counter's saturation point.
type StuckAtMax struct {
	Frac  float64
	Value float64
}

// Name implements Model.
func (s StuckAtMax) Name() string { return fmt.Sprintf("stuckMax(%.2f)", s.Frac) }

// Apply implements Model.
func (s StuckAtMax) Apply(_ int, vec []float64, _ *rand.Rand, salt uint64) {
	v := s.Value
	if v <= 0 {
		v = math.MaxUint32
	}
	for i := range vec {
		if unit(salt, uint64(i)) < s.Frac {
			vec[i] = v
		}
	}
}

// Noise applies multiplicative Gaussian noise with relative standard
// deviation Sigma to every observable counter, clamped at zero (counter
// deltas are non-negative).
type Noise struct{ Sigma float64 }

// Name implements Model.
func (n Noise) Name() string { return fmt.Sprintf("noise(%.2f)", n.Sigma) }

// Apply implements Model.
func (n Noise) Apply(_ int, vec []float64, rng *rand.Rand, _ uint64) {
	for i, v := range vec {
		if IsMissing(v) {
			continue
		}
		v *= 1 + n.Sigma*rng.NormFloat64()
		if v < 0 {
			v = 0
		}
		vec[i] = v
	}
}

// Jitter models sampling-interval drift: the whole vector is scaled by a
// uniform factor in [1-Frac, 1+Frac], as if the interval fired early or
// late so every delta shrank or grew together.
type Jitter struct{ Frac float64 }

// Name implements Model.
func (j Jitter) Name() string { return fmt.Sprintf("jitter(%.2f)", j.Frac) }

// Apply implements Model.
func (j Jitter) Apply(_ int, vec []float64, rng *rand.Rand, _ uint64) {
	f := 1 + (2*rng.Float64()-1)*j.Frac
	if f < 0 {
		f = 0
	}
	for i, v := range vec {
		if IsMissing(v) {
			continue
		}
		vec[i] = v * f
	}
}

// Blackout suppresses a fixed set of counter indices — typically one whole
// pipeline component — for the sample window [From, To). To <= 0 means
// until the end of the run.
type Blackout struct {
	Indices []int
	From    int
	To      int
	label   string
}

// NewBlackout builds a Blackout covering every counter of the named
// component ("dcache", "branchPred", ...; see stats.ParseComponent) on the
// given registry.
func NewBlackout(reg *stats.Registry, component string, from, to int) (*Blackout, error) {
	comp, err := stats.ParseComponent(component)
	if err != nil {
		return nil, err
	}
	idx := reg.ByComponent(comp)
	if len(idx) == 0 {
		return nil, fmt.Errorf("faults: component %q has no counters", component)
	}
	return &Blackout{Indices: idx, From: from, To: to, label: component}, nil
}

// Name implements Model.
func (b *Blackout) Name() string {
	l := b.label
	if l == "" {
		l = fmt.Sprintf("%d counters", len(b.Indices))
	}
	return fmt.Sprintf("blackout(%s)", l)
}

// Apply implements Model.
func (b *Blackout) Apply(index int, vec []float64, _ *rand.Rand, _ uint64) {
	if index < b.From || (b.To > 0 && index >= b.To) {
		return
	}
	for _, i := range b.Indices {
		if i >= 0 && i < len(vec) {
			vec[i] = Missing()
		}
	}
}

// Schedule composes fault models under one seed. Applying the schedule to
// sample index i always produces the same mutation for the same seed,
// regardless of the order or number of ApplyOne calls, so streaming and
// batch injection agree and experiments are reproducible. A schedule only
// ever rewrites vectors that were already sampled: it is a pure function of
// (seed, model, sample index, vector) and cannot change the run itself.
type Schedule struct {
	Seed   int64
	Models []Model
}

// NewSchedule builds a deterministic schedule over the given models.
func NewSchedule(seed int64, models ...Model) *Schedule {
	return &Schedule{Seed: seed, Models: models}
}

// String lists the composed models.
func (s *Schedule) String() string {
	if s == nil || len(s.Models) == 0 {
		return "no faults"
	}
	names := make([]string, len(s.Models))
	for i, m := range s.Models {
		names[i] = m.Name()
	}
	return strings.Join(names, " + ")
}

// ApplyOne runs every model, in order, over one sampled vector in place.
func (s *Schedule) ApplyOne(index int, vec []float64) {
	if s == nil {
		return
	}
	for mi, m := range s.Models {
		salt := mix(uint64(s.Seed), uint64(mi)+1)
		rng := rand.New(rand.NewSource(int64(mix(salt, uint64(index)+1))))
		m.Apply(index, vec, rng, salt)
	}
}

// Apply injects faults into a whole run's sampled vectors in place.
func (s *Schedule) Apply(vecs [][]float64) {
	for i, v := range vecs {
		s.ApplyOne(i, v)
	}
}

// mix folds values into a splitmix64-style hash.
func mix(vs ...uint64) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, v := range vs {
		h += v
		h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9
		h = (h ^ (h >> 27)) * 0x94D049BB133111EB
		h ^= h >> 31
	}
	return h
}

// unit maps (salt, i) onto a uniform [0,1) value; it is the persistent
// per-counter coin for stuck-at faults.
func unit(salt, i uint64) float64 {
	return float64(mix(salt, i)>>11) / (1 << 53)
}
