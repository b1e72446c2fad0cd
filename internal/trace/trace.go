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

	// Dropped lists runs Collect abandoned ("program#run: reason"): runs
	// whose workload panicked, or runs cancelled before producing a single
	// sample. Training proceeds on the surviving runs.
	Dropped []string

	// Retried is always zero: Collect makes one attempt per run. It is
	// kept only because the benchmark harness (bench/setup.go) reads it.
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
}

// Collect runs every program on a fresh machine per run and gathers the
// sampled counter deltas, one Dataset per config, in order. Collection is
// deterministic for a fixed config (per-run seeds are derived from
// cfg.Seed) and fans the runs out through par.Do, each writing only its
// own slot.
//
// Configs that differ only in MaxInsts and Interval share their runs: each
// (program, run) simulates only the longest, and the shorter ones ride
// along as nested runs (sim.Run.Nest). Every dataset holds the samples and
// Dropped a collection of its config alone returns.
//
// Cancelling ctx stops scheduling new runs and cuts off in-flight ones at
// their next instruction fetch. A panicking workload is recovered and its
// run dropped (recorded in Dataset.Dropped) instead of killing the
// collection; a nested run that ended before the panic keeps its samples.
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
	// ji is its index in the group, which derives its seed as it would in
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
			if r.dropped != "" {
				ds.Dropped = append(ds.Dropped, fmt.Sprintf("%s#%d: %s", jb.prog.Info().Name, jb.run, r.dropped))
			}
		}
	}
	for i, ds := range out {
		reg.Counter("perspectron_collect_runs_total").Add(uint64(len(progs) * cfgs[i].Runs))
		reg.Counter("perspectron_collect_runs_dropped_total").Add(uint64(len(ds.Dropped)))
		reg.Counter("perspectron_collect_samples_total").Add(uint64(len(ds.Samples)))
	}
	return out
}

// shareRuns partitions cfgs into groups whose runs one simulation can
// serve, each as indices into cfgs with the longest run first.
func shareRuns(cfgs []CollectConfig) [][]int {
	var groups [][]int
	byRuns := map[CollectConfig]int{} // cfg without MaxInsts and Interval -> group
	for i, c := range cfgs {
		k := c
		k.MaxInsts, k.Interval = 0, 0
		g, ok := byRuns[k]
		if !ok {
			g = len(groups)
			groups = append(groups, nil)
			byRuns[k] = g
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
}

// collectRun executes one (program, run) for a group of configs sharing
// it by draining its Source — the producer recorded and streaming runs
// share — for group[0], the longest, with every other config nested in
// it. A workload panic drops the run of every config that had not ended
// when it struck; a nested run that had ended keeps its samples, as its
// own collection would.
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
	src := NewSource(ctx, sim.NewMachine(), prog, run, cfg.Seed*1_000_003+int64(ji)*7919, cfg.MaxInsts, cfg.Interval)
	nested := make([]func() ([]Sample, bool), len(group))
	for k := 1; k < len(group); k++ {
		nested[k] = src.Nest(group[k].MaxInsts, group[k].Interval)
	}
	var out []Sample
	for s, ok := src.Next(); ok; s, ok = src.Next() {
		out = append(out, s)
	}
	name := telemetry.Name("perspectron_collect_run_seconds", "workload", prog.Info().Name)
	telemetry.Get().Histogram(name, telemetry.DurationBuckets).Observe(time.Since(start).Seconds())

	err := src.Err()
	if err == nil {
		res[0].samples = out
	}
	for k := range res {
		done := err == nil
		if k > 0 {
			res[k].samples, done = nested[k]()
		}
		switch {
		case !done && err != nil:
			res[k].dropped = err.Error()
		case len(res[k].samples) == 0 && ctx.Err() != nil:
			res[k].dropped = "cancelled with no samples"
		}
	}
	return res
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
// dropped-run tally when any run was dropped.
func (d *Dataset) Summary() string {
	b, m := d.ClassCounts()
	out := fmt.Sprintf("%d samples (%d benign, %d malicious), %d features, interval %d",
		len(d.Samples), b, m, d.NumFeatures(), d.Interval)
	if len(d.Dropped) > 0 {
		out += fmt.Sprintf(" (%d runs dropped)", len(d.Dropped))
	}
	return out
}
