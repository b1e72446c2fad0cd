// Package perspectron is the public API of the PerSpectron reproduction: a
// hardware-style perceptron detector for microarchitectural attacks
// (Mirbagher-Ajorpaz et al., MICRO 2020), together with the cycle-accounting
// out-of-order machine simulator, attack and benign workload generators, and
// the feature-selection pipeline the paper describes.
//
// Typical use:
//
//	det, _ := perspectron.Train(perspectron.TrainingWorkloads(), perspectron.DefaultOptions())
//	report := det.Monitor(perspectron.AttackByName("spectreV1", "fr"), 200_000, 1)
//	if report.Detected {
//	    fmt.Printf("flagged at sample %d (%.0f instructions)\n",
//	        report.FirstFlagged, float64(report.FirstFlagged)*float64(det.Interval))
//	}
package perspectron

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"perspectron/internal/corpus"
	"perspectron/internal/encoding"
	"perspectron/internal/faults"
	"perspectron/internal/features"
	"perspectron/internal/perceptron"
	"perspectron/internal/stats"
	"perspectron/internal/telemetry"
	"perspectron/internal/trace"
	"perspectron/internal/workload"
	"perspectron/internal/workload/attacks"
	"perspectron/internal/workload/benign"
)

// SetCacheDir enables the on-disk corpus cache for the process-wide
// artifact store: trained-on datasets are persisted under dir and reused
// across invocations (deterministic seeding makes cached and fresh
// collections byte-identical). An empty dir disables the disk cache.
func SetCacheDir(dir string) error { return corpus.Default().SetCacheDir(dir) }

// Workload is a runnable program (attack or benign kernel).
type Workload = workload.Program

// TrainingWorkloads returns the paper's base corpus, the unmodified-attack
// workload set: every attack with its default channel, pp-channel variants
// of the speculative attacks (for the §VI-B channel pairing), and the
// SPEC-like benign kernels. It is the dataset behind the headline accuracy
// numbers, and the evasion experiments (Figs. 3–4) train on it so no
// evasion variant is ever seen in training: bandwidth-reduced and
// polymorphic variants are evaluated separately (Table IV's FN columns,
// Figs. 3–4) because their quiet filler intervals make sample-level labels
// ambiguous — the paper likewise reports them as pre/post-leakage coverage,
// not accuracy.
func TrainingWorkloads() []Workload {
	progs := append([]Workload{}, benign.All()...)
	progs = append(progs, attacks.TrainingSet()...)
	for _, cat := range []string{"spectre_v1", "spectre_v2", "spectre_rsb", "meltdown", "cacheout"} {
		progs = append(progs, attacks.WithChannel(cat, "pp"))
	}
	return progs
}

// BenignWorkloads returns the benign corpus only.
func BenignWorkloads() []Workload { return benign.All() }

// AttackWorkloads returns the attack corpus with default channels.
func AttackWorkloads() []Workload { return attacks.TrainingSet() }

// AttackByName returns a single attack by short name ("spectreV1",
// "spectreV2", "spectreRSB", "meltdown", "breakingKSLR", "cacheOut",
// "flush+reload", "flush+flush", "prime+probe") on the given disclosure
// channel ("fr", "ff", "pp"; ignored for fixed-channel attacks). It returns
// nil for unknown names.
func AttackByName(name, channel string) Workload {
	switch name {
	case "spectreV1":
		return attacks.SpectreV1(channel)
	case "spectreV2":
		return attacks.SpectreV2(channel)
	case "spectreRSB":
		return attacks.SpectreRSB(channel)
	case "meltdown":
		return attacks.Meltdown(channel)
	case "breakingKSLR":
		return attacks.BreakingKASLR()
	case "cacheOut":
		return attacks.CacheOut(channel)
	case "flush+reload":
		return attacks.FlushReload()
	case "flush+flush":
		return attacks.FlushFlush()
	case "prime+probe":
		return attacks.PrimeProbe()
	case "spectreV4":
		// Speculative store bypass: never in the paper's corpus; provided
		// for zero-day generalization experiments.
		return attacks.SpectreV4(channel)
	case "rowhammer":
		// The paper's footnote 5 predicts its detectability but could not
		// simulate it; also excluded from training.
		return attacks.RowHammer()
	}
	return nil
}

// PolymorphicVariants returns the 12 SpectreV1 evasion variants of the
// paper's §VI-A1.
func PolymorphicVariants(channel string) []Workload {
	return attacks.AllPolymorphic(channel)
}

// ReduceBandwidth wraps an attack, reducing its leakage bandwidth to factor
// (§VI-A2), e.g. 0.25 for the paper's lowest-rate evasive Spectre.
func ReduceBandwidth(w Workload, factor float64) Workload {
	return attacks.Bandwidth(w, factor)
}

// Options configures training.
type Options struct {
	// Interval is the sampling granularity in committed instructions
	// (paper: 10K performed best; 50K and 100K are also studied).
	Interval uint64
	// MaxInsts is the committed-path length of each training run.
	MaxInsts uint64
	// Runs is the number of independently seeded runs per workload.
	Runs int
	// MaxFeatures is the selection budget (paper: 106).
	MaxFeatures int
	// Threshold is the detection cut on the normalized perceptron output.
	Threshold float64
	// Seed drives all randomness.
	Seed int64
}

// DefaultOptions mirrors the paper's best configuration at a laptop-scale
// run length.
func DefaultOptions() Options {
	return Options{
		Interval:    10_000,
		MaxInsts:    300_000,
		Runs:        2,
		MaxFeatures: 106,
		Threshold:   0.25,
		Seed:        1,
	}
}

// Detector is a trained PerSpectron instance. It is self-contained: the
// selected feature names, perceptron weights and normalization maxima are
// all embedded, so it can be serialized (Save/Load) like the vendor weight
// patches of the paper's §IV-G1.
type Detector struct {
	// Checksum is the SHA-256 self-checksum Save embeds ("sha256:<hex>",
	// computed over the canonical JSON with this field empty). Load verifies
	// it, so a truncated or bit-flipped checkpoint fails loudly; files
	// written before checksumming existed load with a warning. The first 12
	// hex digits double as the checkpoint's content version for the serving
	// runtime's hot-reload path.
	Checksum string `json:"checksum,omitempty"`

	FeatureNames []string    `json:"feature_names"`
	Weights      []float64   `json:"weights"`
	Bias         float64     `json:"bias"`
	Threshold    float64     `json:"threshold"`
	Interval     uint64      `json:"interval"`
	GlobalMax    []float64   `json:"global_max"`
	PointMax     [][]float64 `json:"point_max"` // [point][selected feature]

	// Lineage is the checkpoint's training provenance — parent checksum,
	// cumulative sample count, serialized optimizer state, the training-time
	// feature-distribution snapshot and the promotion gate's eval scores
	// (see checkpoint.go). Absent on legacy checkpoints; continual training
	// starts a fresh lineage for them.
	Lineage *Lineage `json:"lineage,omitempty"`
}

// CollectConfig returns the trace-collection configuration the options
// describe — the corpus store's half of the cache fingerprint.
func (o Options) CollectConfig() trace.CollectConfig {
	return trace.CollectConfig{
		MaxInsts: o.MaxInsts,
		Interval: o.Interval,
		Seed:     o.Seed,
		Runs:     o.Runs,
	}
}

// selectConfig returns the feature-selection configuration the options
// describe.
func (o Options) selectConfig() features.SelectConfig {
	cfg := features.DefaultSelectConfig()
	if o.MaxFeatures > 0 {
		cfg.MaxFeatures = o.MaxFeatures
	}
	return cfg
}

// Train collects traces from the given workloads on the simulated machine
// (through the process-wide corpus store, so a corpus already collected
// this invocation — or cached on disk via SetCacheDir — is reused), runs
// the paper's feature-selection algorithm, trains the perceptron on
// k-sparse binary features, and returns the packaged detector.
func Train(workloads []Workload, opts Options) (*Detector, error) {
	ctx, span := telemetry.StartSpan(context.Background(), "train")
	defer span.End()

	if len(workloads) == 0 {
		return nil, fmt.Errorf("perspectron: no training workloads")
	}
	store := corpus.Default()
	ds := store.DatasetCtx(ctx, workloads, opts.CollectConfig())
	b, m := ds.ClassCounts()
	if b == 0 || m == 0 {
		return nil, fmt.Errorf("perspectron: training corpus needs both classes (benign=%d malicious=%d)", b, m)
	}
	p := store.PreparedCtx(ctx, workloads, opts.CollectConfig(), opts.selectConfig())
	enc, sel := p.Enc, p.Sel
	if len(sel.Indices) == 0 {
		return nil, fmt.Errorf("perspectron: feature selection found no informative features")
	}

	// Train on the bit-packed k-sparse rows of the selected features: the fit
	// walks only the set bits of each row. Driving the epoch loop through a
	// Trainer (rather than batch Fit) yields the same weights and leaves
	// behind the serialized optimizer state the continual-learning pipeline
	// resumes from.
	served := servedView(enc)
	Xp, yb := trace.Bits(served, ds, sel.Indices)
	pcfg := perceptron.DefaultConfig()
	pcfg.Threshold = opts.Threshold
	pcfg.Seed = opts.Seed
	perc := perceptron.New(len(sel.Indices), pcfg)
	tr := perceptron.NewTrainer(perc)
	tr.Fit(Xp, yb, 0)
	st := tr.State()

	// The detector embeds the served view projected onto its feature slots:
	// the maxima trace.Bits encoded the training rows with.
	proj := served.Project(sel.Indices)
	d := &Detector{
		FeatureNames: make([]string, len(sel.Indices)),
		Weights:      perc.W,
		Bias:         perc.Bias,
		Threshold:    opts.Threshold,
		Interval:     opts.Interval,
		GlobalMax:    proj.GlobalMax,
		PointMax:     proj.PerPoint,
		Lineage: &Lineage{
			TrainedSamples: len(Xp),
			Trainer:        &st,
			FeatureMeans:   firingRates(Xp, len(sel.Indices)),
		},
	}
	for i, j := range sel.Indices {
		d.FeatureNames[i] = ds.FeatureNames[j]
	}
	return d, nil
}

// maxPoints caps the execution points whose maxima a detector embeds;
// samples at later points normalize by the global maxima.
const maxPoints = 64

// servedView returns enc with its per-point maxima capped at maxPoints: the
// view a trained detector serves with, so the one Train encodes its
// training rows through.
func servedView(enc *encoding.Encoding) *encoding.Encoding {
	return &encoding.Encoding{GlobalMax: enc.GlobalMax, PerPoint: enc.PerPoint[:min(len(enc.PerPoint), maxPoints)]}
}

// NumFeatures returns the detector's input width.
func (d *Detector) NumFeatures() int { return len(d.Weights) }

// Hardware returns the hardware cost model for this detector.
func (d *Detector) Hardware() perceptron.HardwareModel {
	h := perceptron.DefaultHardwareModel()
	h.NumFeatures = d.NumFeatures()
	h.SampleInstrs = d.Interval
	return h
}

// encoding returns the detector's slot-indexed view of the shared
// normalize/binarize implementation, built over the embedded maxima.
func (d *Detector) encoding() *encoding.Encoding {
	return &encoding.Encoding{GlobalMax: d.GlobalMax, PerPoint: d.PointMax}
}

// SamplePoint is one sampling interval's verdict.
type SamplePoint struct {
	Index   int     // sampling interval number
	Insts   uint64  // committed instructions at the sample
	Score   float64 // normalized perceptron output (confidence)
	Flagged bool
}

// Report is the outcome of monitoring one workload.
type Report struct {
	Workload  string
	Malicious bool // ground truth
	Samples   []SamplePoint
	Detected  bool
	// FirstFlag is the index of the first flagged sample. A negative value
	// means the workload was never flagged (Detected is then false).
	FirstFlag int
	// LeakSamples lists the sample indices at which disclosures completed.
	LeakSamples []int
	// LeakBefore reports whether the attack's first disclosure completed
	// strictly before the first flagged sample — i.e. detection came too
	// late (or, when FirstFlag < 0, never came). It is always false for
	// workloads that never leaked (empty LeakSamples).
	LeakBefore bool
	// Degraded is true when the detector could not observe its full feature
	// set: counters missing from the machine, or values masked by injected
	// faults. Scores are then renormalized over the surviving weights.
	Degraded bool
	// Coverage is the mean fraction (0..1] of the detector's features that
	// were observable per scored sample. 1.0 means full fidelity; it is the
	// denominator of the degraded-mode confidence (see docs/FAULTS.md).
	Coverage float64
}

// reportFold folds a run's per-sample verdicts into a Report: the one place
// the first flag, mean coverage, Degraded, LeakSamples and LeakBefore are
// derived, shared by Replay and MonitorWithPolicy.
type reportFold struct {
	rep         Report
	interval    uint64
	coverageSum float64
}

func newReportFold(name string, malicious bool, interval uint64) *reportFold {
	return &reportFold{
		rep:      Report{Workload: name, Malicious: malicious, FirstFlag: -1},
		interval: interval,
	}
}

// add records one sampling interval's verdict as RawScorer.Detect returned
// it.
func (f *reportFold) add(index int, score float64, flagged bool, coverage float64) {
	f.coverageSum += coverage
	f.rep.Samples = append(f.rep.Samples, SamplePoint{
		Index:   index,
		Insts:   uint64(index+1) * f.interval,
		Score:   score,
		Flagged: flagged,
	})
	if flagged && f.rep.FirstFlag < 0 {
		f.rep.FirstFlag = index
		f.rep.Detected = true
	}
}

// finish completes the report from the run's leak samples (as
// trace.LeakSamples maps them). A run that scored no sample reports the
// fraction of detector features the machine resolves (detIdx, the scorer's
// indices) as its coverage.
func (f *reportFold) finish(leakSamples []int, detIdx []int) *Report {
	rep := f.rep
	if n := len(rep.Samples); n > 0 {
		rep.Coverage = f.coverageSum / float64(n)
	} else {
		resolved := 0
		for _, j := range detIdx {
			if j >= 0 {
				resolved++
			}
		}
		rep.Coverage = float64(resolved) / float64(len(detIdx))
	}
	rep.Degraded = rep.Coverage < 1-1e-12
	rep.LeakSamples = append([]int(nil), leakSamples...)
	if len(rep.LeakSamples) > 0 {
		rep.LeakBefore = rep.FirstFlag < 0 || rep.LeakSamples[0] < rep.FirstFlag
	}
	return &rep
}

// Monitor runs the workload for maxInsts committed instructions on a fresh
// machine and scores every sampling interval with the detector: Record,
// then Replay. seed drives the workload's data-dependent behaviour.
// Robustness evaluation replays the recording under a FaultConfig instead.
func (d *Detector) Monitor(w Workload, maxInsts uint64, seed int64) (*Report, error) {
	rec, err := Record(context.Background(), w, maxInsts, seed, d.Interval)
	if err != nil {
		return nil, err
	}
	return d.Replay(rec, nil)
}

// FaultConfig selects deterministic counter-level faults for Replay and
// streaming Sessions. The zero value injects
// nothing. All faults draw from Seed, so a (detector, workload, FaultConfig)
// triple is fully reproducible.
type FaultConfig struct {
	Seed int64
	// Dropout is the per-sample probability that each counter value goes
	// missing (a transient sensor-read failure).
	Dropout float64
	// StuckZero pins this persistent fraction of counters to zero.
	StuckZero float64
	// StuckMax pins this persistent fraction of counters to a saturated
	// 32-bit counter value.
	StuckMax float64
	// Noise is the relative sigma of multiplicative Gaussian noise.
	Noise float64
	// Jitter scales whole samples by a uniform factor in [1-Jitter,1+Jitter],
	// modelling sampling-interval drift.
	Jitter float64
	// Blackout silences every counter of the named pipeline component
	// ("dcache", "branchPred", ...) for samples [BlackoutFrom, BlackoutTo);
	// BlackoutTo <= 0 means to the end of the run.
	Blackout     string
	BlackoutFrom int
	BlackoutTo   int
}

// schedule compiles the config into a fault schedule over the counter space
// reg; a config that selects no fault compiles to nil (no faults).
func (c FaultConfig) schedule(reg *stats.Registry) (*faults.Schedule, error) {
	var models []faults.Model
	if c.Dropout > 0 {
		models = append(models, faults.Dropout{Rate: c.Dropout})
	}
	if c.StuckZero > 0 {
		models = append(models, faults.StuckAtZero{Frac: c.StuckZero})
	}
	if c.StuckMax > 0 {
		models = append(models, faults.StuckAtMax{Frac: c.StuckMax})
	}
	if c.Noise > 0 {
		models = append(models, faults.Noise{Sigma: c.Noise})
	}
	if c.Jitter > 0 {
		models = append(models, faults.Jitter{Frac: c.Jitter})
	}
	if c.Blackout != "" {
		b, err := faults.NewBlackout(reg, c.Blackout, c.BlackoutFrom, c.BlackoutTo)
		if err != nil {
			return nil, err
		}
		models = append(models, b)
	}
	if len(models) == 0 {
		return nil, nil
	}
	return faults.NewSchedule(c.Seed, models...), nil
}

// Replay scores a recorded run with the detector, one sample at a time
// through the RawScorer the serving runtime uses. A non-nil fc injects
// counter-level faults into a copy of each sample (rec is never modified),
// so one recording replayed under many fault schedules gives exactly the
// reports that simulating the run once per schedule would. The detector
// then runs in degraded mode over whatever signal survives; the report's
// Degraded and Coverage fields quantify the loss.
func (d *Detector) Replay(rec *Recording, fc *FaultConfig) (*Report, error) {
	fold := newReportFold(rec.Workload, rec.Malicious, d.Interval)

	// Telemetry instruments are fetched once before the sample loop, so the
	// hot loop pays atomics, not registry lookups.
	reg := telemetry.Get()
	scoreHist := reg.Histogram("perspectron_monitor_score", telemetry.ScoreBuckets)
	latencyHist := reg.Histogram("perspectron_monitor_sample_seconds", telemetry.LatencyBuckets)
	sampleCtr := reg.Counter("perspectron_monitor_samples_total")
	flaggedCtr := reg.Counter("perspectron_monitor_flagged_total")
	_, span := reg.StartSpan(context.Background(), "monitor")
	scorer, err := rec.replay(d, nil, d.Interval, fc, func(scorer *RawScorer, rs RawSample) {
		start := time.Now()
		score, flagged, coverage := scorer.Detect(rs)
		latencyHist.Observe(time.Since(start).Seconds())
		scoreHist.Observe(score)
		sampleCtr.Inc()
		if flagged {
			flaggedCtr.Inc()
		}
		fold.add(rs.Sample, score, flagged, coverage)
	})
	span.End()
	if err != nil {
		return nil, err
	}
	rep := fold.finish(rec.LeakSamples, scorer.detIdx)
	reg.Gauge("perspectron_monitor_coverage").Set(rep.Coverage)
	if reg.HasEventSink() {
		reg.Event("monitor", map[string]any{
			"workload":  rep.Workload,
			"malicious": rep.Malicious,
			"detected":  rep.Detected,
			"samples":   len(rep.Samples),
			"coverage":  rep.Coverage,
		})
	}
	return rep, nil
}

// Save serializes the detector as JSON (the paper's vendor-distributable
// weight patch), with an embedded SHA-256 self-checksum so a truncated or
// bit-flipped checkpoint is rejected at Load instead of silently mis-scoring.
func (d *Detector) Save(w io.Writer) error {
	c := *d
	c.Checksum = ""
	sum, err := checksumJSON(&c)
	if err != nil {
		return fmt.Errorf("perspectron: encoding detector: %w", err)
	}
	c.Checksum = sum
	d.Checksum = sum // the in-memory detector adopts its content version
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&c)
}

// Load reads a detector written by Save. The embedded checksum is verified
// first — a mismatch fails with a "checkpoint corrupt" error; legacy
// checksum-less files are accepted with a warning (and the computed checksum
// adopted). Load is then a strict validator: a detector that decodes but
// carries non-finite weights, inconsistent normalization-matrix widths or a
// non-positive sampling interval is rejected here rather than misbehaving
// later in scoring.
func Load(r io.Reader) (*Detector, error) {
	var d Detector
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("perspectron: decoding detector: %w", err)
	}
	c := d
	c.Checksum = ""
	if err := verifyChecksum("detector", d.Checksum, &c); err != nil {
		return nil, err
	}
	if d.Checksum == "" {
		d.Checksum, _ = checksumJSON(&c) // adopt the content version
	}
	if err := d.validate(); err != nil {
		return nil, fmt.Errorf("perspectron: corrupt detector: %w", err)
	}
	return &d, nil
}

// validate checks the structural and numeric invariants Save guarantees.
func (d *Detector) validate() error {
	n := len(d.FeatureNames)
	if n == 0 {
		return fmt.Errorf("no features")
	}
	if len(d.Weights) != n {
		return fmt.Errorf("%d weights for %d features", len(d.Weights), n)
	}
	if len(d.GlobalMax) != n {
		return fmt.Errorf("%d global maxima for %d features", len(d.GlobalMax), n)
	}
	if d.Interval == 0 {
		return fmt.Errorf("non-positive sampling interval")
	}
	if !finite(d.Bias) || !finite(d.Threshold) {
		return fmt.Errorf("non-finite bias or threshold")
	}
	for i, w := range d.Weights {
		if !finite(w) {
			return fmt.Errorf("non-finite weight for feature %q", d.FeatureNames[i])
		}
	}
	for i, m := range d.GlobalMax {
		if !finite(m) {
			return fmt.Errorf("non-finite global max for feature %q", d.FeatureNames[i])
		}
	}
	for p, row := range d.PointMax {
		if len(row) != n {
			return fmt.Errorf("point-max row %d has width %d, want %d", p, len(row), n)
		}
		for i, m := range row {
			if !finite(m) {
				return fmt.Errorf("non-finite point max at (%d, %q)", p, d.FeatureNames[i])
			}
		}
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// TopFeatures returns the k most suspicious (positive-weight) and most
// benign (negative-weight) features with their weights — the
// interpretability view of the paper's §VII-C.
func (d *Detector) TopFeatures(k int) (suspicious, benign []WeightedFeature) {
	p := perceptron.Perceptron{W: d.Weights, Bias: d.Bias}
	pos, neg := p.TopWeights(k)
	for _, j := range pos {
		suspicious = append(suspicious, WeightedFeature{d.FeatureNames[j], d.Weights[j]})
	}
	for _, j := range neg {
		benign = append(benign, WeightedFeature{d.FeatureNames[j], d.Weights[j]})
	}
	return suspicious, benign
}

// WeightedFeature pairs a counter name with its learned weight.
type WeightedFeature struct {
	Name   string
	Weight float64
}
