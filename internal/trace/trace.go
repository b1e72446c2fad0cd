// Package trace collects labelled multi-dimensional time-series traces from
// the simulator — the paper's gem5 statistics dumps at 10K/50K/100K
// instruction granularity — and prepares them for learning: the per-
// (counter, execution-point) maximum matrix M, scaling to [0,1], and the
// bit-packed k-sparse binarization PerSpectron consumes.
package trace

import (
	"context"
	"fmt"
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
// sampled counter deltas, one Dataset per config, in order. Collection is
// deterministic for a fixed config (per-run seeds are derived from
// cfg.Seed) and fans the runs out through par.Do, each writing only its
// own slot.
//
// Configs that differ only in MaxInsts and Interval and set no Timeout
// share their runs: each (program, run) simulates only the longest, and
// the shorter ones ride along as nested runs (sim.Run.Nest). Every dataset
// holds the samples, Dropped and Retried a collection of its config alone
// returns.
//
// Cancelling ctx stops scheduling new runs and cuts off in-flight ones at
// their next instruction fetch. Each run is additionally shielded — a
// panicking workload is retried cfg.Retries times with fresh seeds and then
// dropped (recorded in Dataset.Dropped) instead of killing the collection.
// A retry re-nests only the nested runs that had not ended when the
// workload panicked.
func Collect(ctx context.Context, progs []workload.Program, cfgs ...CollectConfig) []*Dataset {
	reg := telemetry.Get()
	ctx, span := reg.StartSpan(ctx, "collect")
	defer span.End()

	probe := sim.NewMachine()
	out := make([]*Dataset, len(cfgs))
	for i, cfg := range cfgs {
		out[i] = &Dataset{
			FeatureNames: probe.Reg.Names(),
			Components:   probe.Reg.Components(),
			Interval:     cfg.Interval,
		}
	}

	// A job is one (program, run) of one group of configs sharing runs;
	// ji is its index in the group, which derives its seeds as it would in
	// a collection of each config alone.
	groups := shareRuns(cfgs)
	sets := make([][]CollectConfig, len(groups)) // each group's configs
	type job struct {
		g, ji, run int
		prog       workload.Program
	}
	var jobs []job
	for g, idx := range groups {
		for _, c := range idx {
			sets[g] = append(sets[g], cfgs[c])
		}
		runs := sets[g][0].Runs
		for ji := 0; ji < len(progs)*runs; ji++ {
			jobs = append(jobs, job{g, ji, ji % runs, progs[ji/runs]})
		}
	}

	// results[j][k] is job j's outcome for its group's k-th config.
	results := make([][]runResult, len(jobs))
	par.Do(len(jobs), func(j int) {
		jb := jobs[j]
		results[j] = collectRun(ctx, jb.prog, jb.run, jb.ji, sets[jb.g])
	})

	for j, jb := range jobs {
		for k, c := range groups[jb.g] {
			ds, r := out[c], results[j][k]
			ds.Samples = append(ds.Samples, r.samples...)
			ds.Retried += r.retried
			if r.dropped != "" {
				ds.Dropped = append(ds.Dropped, fmt.Sprintf("%s#%d: %s", jb.prog.Info().Name, jb.run, r.dropped))
			}
		}
	}
	for i, ds := range out {
		reg.Counter("perspectron_collect_runs_total").Add(uint64(len(progs) * cfgs[i].Runs))
		reg.Counter("perspectron_collect_run_retries_total").Add(uint64(ds.Retried))
		reg.Counter("perspectron_collect_runs_dropped_total").Add(uint64(len(ds.Dropped)))
		reg.Counter("perspectron_collect_samples_total").Add(uint64(len(ds.Samples)))
	}
	return out
}

// shareRuns partitions cfgs into groups whose runs one simulation can
// serve, each as indices into cfgs with the longest run first. A config
// with a Timeout is a group of its own: its cut-off depends on wall time,
// which a longer run would not reproduce.
func shareRuns(cfgs []CollectConfig) [][]int {
	var groups [][]int
	byRuns := map[CollectConfig]int{} // cfg without MaxInsts and Interval -> group
	for i, c := range cfgs {
		k := c
		k.MaxInsts, k.Interval = 0, 0
		g, ok := byRuns[k]
		if !ok || c.Timeout != 0 {
			g = len(groups)
			groups = append(groups, nil)
			if c.Timeout == 0 {
				byRuns[k] = g
			}
		}
		groups[g] = append(groups[g], i)
	}
	longer := func(a, b uint64) bool { return a == 0 && b != 0 || b != 0 && a > b }
	for _, g := range groups {
		for k := 1; k < len(g); k++ {
			if longer(cfgs[g[k]].MaxInsts, cfgs[g[0]].MaxInsts) {
				g[0], g[k] = g[k], g[0]
			}
		}
	}
	return groups
}

// runResult is one (program, run)'s outcome under one config.
type runResult struct {
	samples []Sample
	dropped string // why the run was abandoned; "" if it was not
	retried int
}

// collectRun executes one (program, run) for a group of configs sharing
// it, group[0] the longest, under the group's retry policy. A config's
// outcome is the one its own collection would reach: a nested run that
// ended before a panic keeps its samples and is not re-run, and every
// config counts only the attempts it took part in.
func collectRun(ctx context.Context, prog workload.Program, run, ji int, group []CollectConfig) []runResult {
	res := make([]runResult, len(group))
	if ctx.Err() != nil {
		for k := range res {
			res[k].dropped = "cancelled before start"
		}
		return res
	}
	cfg := group[0]
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
	open := make([]int, len(group)) // configs whose run has not ended
	for k := range open {
		open[k] = k
	}
	tries := make([]int, len(group))
	_, err := retry.Do(ctx, "collect", pol, cfg.Seed*1_000_003+int64(ji),
		func(attempt int) error {
			// Attempt 0 reproduces the historical seed schedule
			// exactly; retries shift it so a data-dependent panic
			// is not replayed verbatim.
			seed := cfg.Seed*1_000_003 + int64(ji)*7919 + int64(attempt)*104_729
			cfgs := make([]CollectConfig, len(open))
			for i, k := range open {
				cfgs[i] = group[k]
				tries[k]++
			}
			outs, aerr := collectOne(ctx, prog, run, seed, cfgs)
			still := open[:0]
			for i, k := range open {
				if outs[i] == nil && aerr != nil {
					still = append(still, k)
					continue
				}
				res[k].samples = outs[i]
			}
			open = still
			return aerr
		})
	name := telemetry.Name("perspectron_collect_run_seconds", "workload", prog.Info().Name)
	telemetry.Get().Histogram(name, telemetry.DurationBuckets).Observe(time.Since(start).Seconds())
	if err != nil {
		for _, k := range open {
			res[k].dropped = err.Error()
		}
	}
	for k := range res {
		res[k].retried = max(tries[k]-1, 0)
		if res[k].dropped == "" && len(res[k].samples) == 0 && ctx.Err() != nil {
			res[k].dropped = "cancelled with no samples"
		}
	}
	return res
}

// collectOne executes a single program run by draining its Source — the
// producer recorded and streaming runs share — for cfgs[0] with every
// other config nested in it, converting workload panics into errors and
// bounding wall-clock time via the config timeout / context. It returns
// each config's samples, nil for a nested run a panic cut short.
func collectOne(ctx context.Context, prog workload.Program, run int, seed int64, cfgs []CollectConfig) ([][]Sample, error) {
	cfg := cfgs[0]
	if cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Timeout)
		defer cancel()
	}
	src := NewSource(ctx, sim.NewMachine(), prog, run, seed, cfg.MaxInsts, cfg.Interval)
	nested := make([]func() ([]Sample, bool), len(cfgs))
	for i, c := range cfgs[1:] {
		nested[i+1] = src.Nest(c.MaxInsts, c.Interval)
	}
	var out []Sample
	for s, ok := src.Next(); ok; s, ok = src.Next() {
		out = append(out, s)
	}
	outs := make([][]Sample, len(cfgs))
	for i, n := range nested[1:] {
		if smp, done := n(); done {
			outs[i+1] = nonNil(smp)
		}
	}
	if err := src.Err(); err != nil {
		return outs, err
	}
	outs[0] = nonNil(out)
	return outs, nil
}

// nonNil returns s, or an empty non-nil slice: nil marks a run cut short.
func nonNil(s []Sample) []Sample {
	if s == nil {
		return []Sample{}
	}
	return s
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
