package perspectron

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"perspectron/internal/corpus"
	"perspectron/internal/encoding"
	"perspectron/internal/perceptron"
	"perspectron/internal/telemetry"
	"perspectron/internal/trace"
	"perspectron/internal/workload"
)

// Classifier is the multi-way companion to Detector (§VII-B): a one-vs-rest
// perceptron bank that names the attack *category* of each sampling
// interval ("spectre_v1", "flush_reload", ..., or "benign"), so the OS can
// pick a category-appropriate mitigation. It uses the full counter space —
// distinguishing Spectre variants needs the per-predictor-unit counters the
// binary selection has no reason to keep.
type Classifier struct {
	// Checksum is the SHA-256 self-checksum Save embeds; see
	// Detector.Checksum for the scheme.
	Checksum string `json:"checksum,omitempty"`

	Classes      []string    `json:"classes"`
	FeatureNames []string    `json:"feature_names"`
	Weights      [][]float64 `json:"weights"` // [class][feature]
	Biases       []float64   `json:"biases"`
	Interval     uint64      `json:"interval"`
	GlobalMax    []float64   `json:"global_max"`
}

// TrainClassifier collects traces (through the process-wide corpus store, so
// a corpus the detector already trained on is reused, not re-simulated) and
// trains the one-vs-rest bank.
func TrainClassifier(workloads []Workload, opts Options) (*Classifier, error) {
	if len(workloads) == 0 {
		return nil, fmt.Errorf("perspectron: no training workloads")
	}
	ds := corpus.Default().Dataset(workloads, opts.CollectConfig())
	m := trace.Maxima(ds)
	// The bank trains on bit-packed k-sparse rows over every feature.
	X, _ := trace.Bits(m, ds, nil)

	labelOf := func(s *trace.Sample) string {
		if s.Label == workload.Benign {
			return "benign"
		}
		return s.Category
	}
	classSet := map[string]bool{}
	labels := make([]string, len(ds.Samples))
	for i := range ds.Samples {
		labels[i] = labelOf(&ds.Samples[i])
		classSet[labels[i]] = true
	}
	var classes []string
	for c := range classSet {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	if len(classes) < 2 {
		return nil, fmt.Errorf("perspectron: classifier needs at least two classes, got %v", classes)
	}

	pcfg := perceptron.DefaultConfig()
	pcfg.Seed = opts.Seed
	mc := perceptron.NewMultiClass(classes, ds.NumFeatures(), pcfg)
	mc.Fit(X, labels)

	c := &Classifier{
		Classes:      classes,
		FeatureNames: ds.FeatureNames,
		Interval:     opts.Interval,
		GlobalMax:    m.GlobalMax,
	}
	for _, det := range mc.Detectors {
		c.Weights = append(c.Weights, det.W)
		c.Biases = append(c.Biases, det.Bias)
	}
	return c, nil
}

// encoding returns the classifier's slot-indexed view of the shared
// normalize/binarize implementation. The classifier keeps only global
// maxima, so every execution point scales identically.
func (c *Classifier) encoding() *encoding.Encoding {
	return &encoding.Encoding{GlobalMax: c.GlobalMax}
}

// Classification is the outcome of classifying one workload run.
type Classification struct {
	Workload string
	// Votes counts the per-interval argmax classes.
	Votes map[string]int
	// Class is the majority class across intervals.
	Class string
	// Confidence is Votes[Class] / total intervals.
	Confidence float64
	// Degraded is true when the classifier could not observe its full
	// feature set: counters missing from the machine, or values masked by
	// injected faults. Class margins are then renormalized over the
	// surviving weights.
	Degraded bool
	// Coverage is the mean fraction (0..1] of the classifier's features that
	// were observable per scored interval.
	Coverage float64
}

// Classify runs the workload and names its class by per-interval majority
// vote: Record, then Replay.
func (c *Classifier) Classify(w Workload, maxInsts uint64, seed int64) (*Classification, error) {
	rec, err := Record(context.Background(), w, maxInsts, seed, c.Interval)
	if err != nil {
		return nil, err
	}
	return c.Replay(rec, nil)
}

// Replay names a recorded run's class, one sample at a time through the
// RawScorer the serving runtime uses. A non-nil fc injects counter-level
// faults into a copy of each sample (rec is never modified), and the
// classifier votes in degraded mode over whatever signal survives.
func (c *Classifier) Replay(rec *Recording, fc *FaultConfig) (*Classification, error) {
	res := &Classification{Workload: rec.Workload, Votes: map[string]int{}}
	coverageSum := 0.0

	// Instruments are fetched once before the vote loop, so the loop pays
	// atomics, not registry lookups.
	reg := telemetry.Get()
	scoreHist := reg.Histogram("perspectron_classify_score", telemetry.ScoreBuckets)
	latencyHist := reg.Histogram("perspectron_classify_sample_seconds", telemetry.LatencyBuckets)
	sampleCtr := reg.Counter("perspectron_classify_samples_total")
	_, span := reg.StartSpan(context.Background(), "classify")
	_, err := rec.replay(nil, c, c.Interval, fc, func(scorer *RawScorer, rs RawSample) {
		start := time.Now()
		class, score, coverage := scorer.Classify(rs)
		latencyHist.Observe(time.Since(start).Seconds())
		scoreHist.Observe(score)
		sampleCtr.Inc()
		coverageSum += coverage
		res.Votes[class]++
	})
	span.End()
	if err != nil {
		return nil, err
	}
	samples := len(rec.Samples)
	if samples == 0 {
		return nil, fmt.Errorf("perspectron: workload produced no samples")
	}
	res.Class = majorityClass(c.Classes, res.Votes)
	res.Confidence = float64(res.Votes[res.Class]) / float64(samples)
	res.Coverage = coverageSum / float64(samples)
	res.Degraded = res.Coverage < 1-1e-12
	reg.Gauge("perspectron_classify_coverage").Set(res.Coverage)
	for class, n := range res.Votes {
		reg.Counter(telemetry.Name("perspectron_classify_votes_total", "class", class)).
			Add(uint64(n))
	}
	return res, nil
}

// majorityClass returns the class with the most votes. Ties go to the class
// listed first in classes (sorted at training, never empty on a valid
// model), so the verdict never depends on map iteration order.
func majorityClass(classes []string, votes map[string]int) string {
	best := classes[0]
	for _, class := range classes[1:] {
		if votes[class] > votes[best] {
			best = class
		}
	}
	return best
}

// Save serializes the classifier as JSON with an embedded SHA-256
// self-checksum (the scheme Detector.Save uses).
func (c *Classifier) Save(w io.Writer) error {
	cc := *c
	cc.Checksum = ""
	sum, err := checksumJSON(&cc)
	if err != nil {
		return fmt.Errorf("perspectron: encoding classifier: %w", err)
	}
	cc.Checksum = sum
	c.Checksum = sum // the in-memory classifier adopts its content version
	enc := json.NewEncoder(w)
	return enc.Encode(&cc)
}

// LoadClassifier reads a classifier written by Save, verifying the embedded
// checksum (legacy checksum-less files load with a warning) and validating
// the decoded structure.
func LoadClassifier(r io.Reader) (*Classifier, error) {
	var c Classifier
	if err := json.NewDecoder(r).Decode(&c); err != nil {
		return nil, fmt.Errorf("perspectron: decoding classifier: %w", err)
	}
	cc := c
	cc.Checksum = ""
	if err := verifyChecksum("classifier", c.Checksum, &cc); err != nil {
		return nil, err
	}
	if c.Checksum == "" {
		c.Checksum, _ = checksumJSON(&cc)
	}
	if err := c.validate(); err != nil {
		return nil, fmt.Errorf("perspectron: corrupt classifier: %w", err)
	}
	return &c, nil
}

// validate checks the structural and numeric invariants Save guarantees —
// the classifier analogue of Detector.validate.
func (c *Classifier) validate() error {
	if len(c.Classes) == 0 {
		return fmt.Errorf("no classes")
	}
	if len(c.Weights) != len(c.Classes) || len(c.Biases) != len(c.Classes) {
		return fmt.Errorf("%d weight rows and %d biases for %d classes",
			len(c.Weights), len(c.Biases), len(c.Classes))
	}
	nf := len(c.FeatureNames)
	if nf == 0 {
		return fmt.Errorf("no features")
	}
	if len(c.GlobalMax) != nf {
		return fmt.Errorf("%d global maxima for %d features", len(c.GlobalMax), nf)
	}
	if c.Interval == 0 {
		return fmt.Errorf("non-positive sampling interval")
	}
	for ci, row := range c.Weights {
		if len(row) != nf {
			return fmt.Errorf("class %q has %d weights for %d features", c.Classes[ci], len(row), nf)
		}
		for _, w := range row {
			if !finite(w) {
				return fmt.Errorf("non-finite weight in class %q", c.Classes[ci])
			}
		}
	}
	for ci, b := range c.Biases {
		if !finite(b) {
			return fmt.Errorf("non-finite bias for class %q", c.Classes[ci])
		}
	}
	for i, m := range c.GlobalMax {
		if !finite(m) {
			return fmt.Errorf("non-finite global max for feature %q", c.FeatureNames[i])
		}
	}
	return nil
}
