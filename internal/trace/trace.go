// Package trace collects labelled multi-dimensional time-series traces from
// the simulator — the paper's gem5 statistics dumps at 10K/50K/100K
// instruction granularity — and prepares them for learning: the per-
// (counter, execution-point) maximum matrix M, scaling to [0,1], and the
// bit-packed k-sparse binarization PerSpectron consumes.
package trace

import (
	"context"
	"fmt"
	"sync"
	"time"

	"perspectron/internal/encoding"
	"perspectron/internal/par"
	"perspectron/internal/retry"
	"perspectron/internal/sim"
	"perspectron/internal/stats"
	"perspectron/internal/telemetry"
	"perspectron/internal/workload"
)

// Sample is one sampling interval of one program run.
type Sample struct {
	Program  string
	Category string
	Channel  string
	Label    workload.Label
	Run      int // run instance (seed index)
	Index    int // execution point: sampling interval number within the run
	Raw      []float64
}

// Dataset is a labelled collection of samples over a fixed feature space.
type Dataset struct {
	FeatureNames []string
	Components   []stats.Component
	Interval     uint64
	Samples      []Sample

	// Dropped lists runs Collect abandoned ("program#run: reason"): panics
	// that persisted through every retry, or runs cancelled/timed out before
	// producing a single sample. Training proceeds on the surviving runs.
	Dropped []string

	// Retried counts run attempts that panicked and were re-attempted with a
	// fresh seed. Nonzero Retried with empty Dropped means the fault shield
	// absorbed every failure.
	Retried int
}

// NumFeatures returns the feature-space width.
func (d *Dataset) NumFeatures() int { return len(d.FeatureNames) }

// ClassCounts returns (#benign, #malicious).
func (d *Dataset) ClassCounts() (benign, malicious int) {
	for _, s := range d.Samples {
		if s.Label == workload.Malicious {
			malicious++
		} else {
			benign++
		}
	}
	return benign, malicious
}

// Filter returns a shallow dataset containing only samples keep selects.
func (d *Dataset) Filter(keep func(*Sample) bool) *Dataset {
	out := &Dataset{FeatureNames: d.FeatureNames, Components: d.Components,
		Interval: d.Interval, Dropped: d.Dropped}
	for i := range d.Samples {
		if keep(&d.Samples[i]) {
			out.Samples = append(out.Samples, d.Samples[i])
		}
	}
	return out
}

// CollectConfig controls trace collection.
type CollectConfig struct {
	MaxInsts uint64 // committed-path ops per program run
	Interval uint64 // sampling granularity (10K/50K/100K)
	Seed     int64
	Runs     int // independent runs (seeds) per program

	// Timeout bounds each program run's wall-clock time; the run's stream
	// is cut off at the deadline and whatever samples it produced are kept.
	// 0 means no per-run limit.
	Timeout time.Duration
	// Retries is the number of extra attempts (with fresh derived seeds)
	// granted to a run whose workload panics, so one bad run cannot sink a
	// whole training job. Runs that still fail are recorded in
	// Dataset.Dropped.
	Retries int
	// Backoff shapes the sleep between retry attempts (the shared
	// internal/retry jittered-exponential helper; sequences are seeded from
	// cfg.Seed, so a fixed config replays the same schedule). The zero value
	// uses collectBackoff, a millisecond-scale policy that keeps retried
	// collections fast. When Retries is set it governs the attempt count
	// (Retries+1 total tries); with Retries == 0 a caller-supplied
	// Backoff.MaxAttempts is honored as-is.
	Backoff retry.Policy
}

// collectBackoff is the default retry pacing for panicked collection runs:
// short, capped sleeps so a transient data-dependent fault is re-rolled
// almost immediately while correlated failures still spread out.
var collectBackoff = retry.Policy{Base: 2 * time.Millisecond, Max: 50 * time.Millisecond, Factor: 2, Jitter: 0.5}

// Collect runs every program on a fresh machine per run and gathers the
// sampled counter deltas. Collection is deterministic for a fixed config
// (per-run seeds are derived from cfg.Seed) and fans the runs out through
// par.Do, each writing only its own slot.
// Cancelling ctx stops scheduling new runs and cuts off in-flight ones at
// their next instruction fetch. Each run is additionally shielded — a
// panicking workload is retried cfg.Retries times with fresh seeds and then
// dropped (recorded in Dataset.Dropped) instead of killing the collection.
func Collect(ctx context.Context, progs []workload.Program, cfg CollectConfig) *Dataset {
	reg := telemetry.Get()
	ctx, span := reg.StartSpan(ctx, "collect")
	defer span.End()

	probe := sim.NewMachine()
	ds := &Dataset{
		FeatureNames: probe.Reg.Names(),
		Components:   probe.Reg.Components(),
		Interval:     cfg.Interval,
	}

	type job struct {
		prog workload.Program
		run  int
	}
	var jobs []job
	for _, p := range progs {
		for r := 0; r < cfg.Runs; r++ {
			jobs = append(jobs, job{p, r})
		}
	}

	results := make([][]Sample, len(jobs))
	var mu sync.Mutex // guards ds.Dropped and retried
	retried := 0
	drop := func(j job, reason string) {
		mu.Lock()
		ds.Dropped = append(ds.Dropped, fmt.Sprintf("%s#%d: %s", j.prog.Info().Name, j.run, reason))
		mu.Unlock()
	}
	par.Do(len(jobs), func(ji int) {
		j := jobs[ji]
		if ctx.Err() != nil {
			drop(j, "cancelled before start")
			return
		}
		var out []Sample
		start := time.Now()
		pol := cfg.Backoff
		if pol == (retry.Policy{}) {
			pol = collectBackoff
		}
		// Retries governs the attempt budget when set; otherwise a
		// caller-supplied Backoff.MaxAttempts survives (overwriting it
		// unconditionally used to silently disable those retries).
		if cfg.Retries > 0 || pol.MaxAttempts <= 0 {
			pol.MaxAttempts = cfg.Retries + 1
		}
		attempts, err := retry.Do(ctx, "collect", pol, cfg.Seed*1_000_003+int64(ji),
			func(attempt int) error {
				// Attempt 0 reproduces the historical seed schedule
				// exactly; retries shift it so a data-dependent panic
				// is not replayed verbatim.
				seed := cfg.Seed*1_000_003 + int64(ji)*7919 + int64(attempt)*104_729
				var aerr error
				out, aerr = collectOne(ctx, j.prog, j.run, seed, cfg)
				return aerr
			})
		if attempts > 1 {
			mu.Lock()
			retried += attempts - 1
			mu.Unlock()
		}
		name := telemetry.Name("perspectron_collect_run_seconds",
			"workload", j.prog.Info().Name)
		reg.Histogram(name, telemetry.DurationBuckets).
			Observe(time.Since(start).Seconds())
		if err != nil {
			drop(j, err.Error())
			return
		}
		if len(out) == 0 && ctx.Err() != nil {
			drop(j, "cancelled with no samples")
			return
		}
		results[ji] = out
	})

	for _, r := range results {
		ds.Samples = append(ds.Samples, r...)
	}
	ds.Retried = retried
	reg.Counter("perspectron_collect_runs_total").Add(uint64(len(jobs)))
	reg.Counter("perspectron_collect_run_retries_total").Add(uint64(ds.Retried))
	reg.Counter("perspectron_collect_runs_dropped_total").Add(uint64(len(ds.Dropped)))
	reg.Counter("perspectron_collect_samples_total").Add(uint64(len(ds.Samples)))
	return ds
}

// collectOne executes a single program run by draining its Source — the
// producer recorded and streaming runs share — converting workload panics
// into errors and bounding wall-clock time via the config timeout / context.
func collectOne(ctx context.Context, prog workload.Program, run int, seed int64, cfg CollectConfig) ([]Sample, error) {
	if cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Timeout)
		defer cancel()
	}
	src := NewSource(ctx, sim.NewMachine(), prog, run, seed, cfg.MaxInsts, cfg.Interval)
	var out []Sample
	for s, ok := src.Next(); ok; s, ok = src.Next() {
		out = append(out, s)
	}
	if err := src.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Maxima builds the maximum matrix M from a training dataset: each run's
// samples, ordered by execution point, update the per-point maxima.
func Maxima(train *Dataset) *encoding.Encoding {
	m := encoding.New(train.NumFeatures())
	// Group samples into per-run sequences ordered by index.
	type key struct {
		prog string
		run  int
	}
	byRun := map[key][][]float64{}
	for i := range train.Samples {
		s := &train.Samples[i]
		k := key{s.Program, s.Run}
		seq := byRun[k]
		for len(seq) <= s.Index {
			seq = append(seq, nil)
		}
		seq[s.Index] = s.Raw
		byRun[k] = seq
	}
	for _, seq := range byRun {
		compact := make([][]float64, 0, len(seq))
		for _, v := range seq {
			if v != nil {
				compact = append(compact, v)
			}
		}
		m.Observe(compact)
	}
	return m
}

// Bits encodes the dataset as bit-packed k-sparse rows over the feature
// indices idx (nil = all features) — PerSpectron's representation, the
// perceptron family's input — with y +1 for malicious and -1 for benign.
// Row bit s is set when counter idx[s] fires against m; the rows come from
// BitsPacked over m projected onto idx, the kernel serving scores with, so
// a trained model sees exactly the bits it will be served.
func Bits(m *encoding.Encoding, d *Dataset, idx []int) (X []encoding.BitVec, y []float64) {
	p := m.Project(idx)
	if idx == nil {
		idx = make([]int, m.NumFeatures())
		for i := range idx {
			idx[i] = i
		}
	}
	X = make([]encoding.BitVec, len(d.Samples))
	y = make([]float64, len(d.Samples))
	for i := range d.Samples {
		s := &d.Samples[i]
		X[i], _ = p.BitsPacked(s.Raw, idx, s.Index, nil)
		y[i] = LabelValue(s.Label)
	}
	return X, y
}

// Scaled encodes the dataset as rows scaled by m into [0,1], restricted to
// the feature indices idx (nil = all features) — the ml baselines' input and
// feature selection's — with the same ±1 labels as Bits.
func Scaled(m *encoding.Encoding, d *Dataset, idx []int) (X [][]float64, y []float64) {
	X = make([][]float64, len(d.Samples))
	y = make([]float64, len(d.Samples))
	var full []float64
	for i := range d.Samples {
		s := &d.Samples[i]
		y[i] = LabelValue(s.Label)
		if idx == nil {
			X[i] = m.Scale(s.Raw, s.Index, nil)
			continue
		}
		full = m.Scale(s.Raw, s.Index, full)
		row := make([]float64, len(idx))
		for j, f := range idx {
			row[j] = full[f]
		}
		X[i] = row
	}
	return X, y
}

// LabelValue maps a label onto the perceptron's ±1 target.
func LabelValue(l workload.Label) float64 {
	if l == workload.Malicious {
		return 1
	}
	return -1
}

// Summary returns a one-line description of the dataset, including the
// collection-health tallies when anything was retried or dropped.
func (d *Dataset) Summary() string {
	b, m := d.ClassCounts()
	out := fmt.Sprintf("%d samples (%d benign, %d malicious), %d features, interval %d",
		len(d.Samples), b, m, d.NumFeatures(), d.Interval)
	if d.Retried > 0 || len(d.Dropped) > 0 {
		out += fmt.Sprintf(" (%d runs retried, %d dropped)", d.Retried, len(d.Dropped))
	}
	return out
}
