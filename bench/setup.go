package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"perspectron"
	"perspectron/internal/corpus"
	"perspectron/internal/experiments"
)

// Files the setup writes into its dir, read by the reps.
const (
	detectorFile   = "detector.json"
	classifierFile = "classifier.json"
	replayFile     = "replay.gob"
)

// scale sizes every workload. The full scale is what BENCHMARK.json
// describes; the tiny scale exists for the smoke test.
type scale struct {
	// train is the train workload's options: `perspectron train`'s
	// defaults. setup trains the served models with one run per workload
	// instead of two, because every run of the benchmark sets up three
	// times and the classifier's fit costs as much as the collection.
	train, setup perspectron.Options
	streamInsts  uint64 // one serve episode, one sim-probe run
	harvest      int    // replay samples per serve stream
	exp          experiments.Config
	expNames     []string // the experiments run, in canonical order
	serveProbe   time.Duration
}

func scaleFor(tiny bool) scale {
	sc := scale{
		train:       perspectron.DefaultOptions(),
		setup:       perspectron.DefaultOptions(),
		streamInsts: 500_000,
		harvest:     100,
		exp:         experiments.QuickConfig(),
		serveProbe:  2 * time.Second,
	}
	sc.setup.Runs = 1
	for _, e := range experimentList {
		sc.expNames = append(sc.expNames, e.name)
	}
	if tiny {
		sc.train.MaxInsts, sc.train.Runs = 30_000, 1
		sc.setup = sc.train
		sc.streamInsts = 50_000
		sc.harvest = 5
		sc.exp.MaxInsts = 30_000
		sc.expNames = []string{"table2", "fig1", "table1", "timing"}
		sc.serveProbe = 300 * time.Millisecond
	}
	return sc
}

// withSeed returns o at seed.
func withSeed(o perspectron.Options, seed int64) perspectron.Options {
	o.Seed = seed
	return o
}

// serveStreams are the four serve-sim streams: two attacks and two benign
// SPEC-like kernels. They also feed the replay samples and the sim probe.
func serveStreams() []perspectron.Workload {
	ws := []perspectron.Workload{
		perspectron.AttackByName("spectreV1", "fr"),
		perspectron.AttackByName("flush+reload", "fr"),
	}
	for _, name := range []string{"gcc", "mcf"} {
		for _, b := range perspectron.BenignWorkloads() {
			if b.Info().Name == name {
				ws = append(ws, b)
			}
		}
	}
	return ws
}

// replaySample is one harvested raw sample.
type replaySample struct {
	Stream string
	Sample int
	Raw    []float64
}

// runSetup is the one-time setup every workload starts from: train the
// detector and the classifier at the seed, save both, and harvest the
// replay samples to a file. The detector's training is phased (see
// trainPhased), which gives the corpus, features and perceptron layers
// their timings.
func runSetup(ctx context.Context, a childArgs, sc scale, tr *tracer, res *childResult) error {
	opts := withSeed(sc.setup, a.seed)
	ws := perspectron.TrainingWorkloads()

	start := time.Now()
	root := tr.begin("setup", 0)
	det, ph, err := trainPhased(ctx, tr, root, ws, opts)
	if err != nil {
		return err
	}
	res.Layer["corpus.collect_s"] = ph.collectS
	res.Layer["corpus.collect_cpu_util"] = ph.collectCPUUtil
	res.Layer["features.select_s"] = ph.selectS
	res.Layer["perceptron.fit_s"] = ph.fitS

	id := tr.begin("perspectron.TrainClassifier", root)
	cls, err := perspectron.TrainClassifier(ws, opts)
	tr.end(id)
	if err != nil {
		return err
	}

	id = tr.begin("save", root)
	err = det.SaveFile(filepath.Join(a.dir, detectorFile))
	if err == nil {
		err = cls.SaveFile(filepath.Join(a.dir, classifierFile))
	}
	tr.end(id)
	if err != nil {
		return err
	}

	id = tr.begin("harvest", root)
	digest, err := harvest(ctx, det, sc, a.seed, filepath.Join(a.dir, replayFile))
	tr.end(id)
	if err != nil {
		return err
	}
	tr.end(root)
	res.Seconds = time.Since(start).Seconds()

	st := corpus.Default().Stats()
	res.Layer["corpus.collections"] = float64(st.Collections)
	res.Layer["corpus.memory_hits"] = float64(st.MemoryHits)
	res.Layer["trace.runs_retried"] = float64(ph.ds.Retried)
	res.Attempted = collectionRuns(ph.ds)
	res.Failed = len(ph.ds.Dropped)
	res.Digest = map[string]string{
		"detector":   det.Checksum,
		"classifier": cls.Checksum,
		"replay":     digest,
	}
	return nil
}

// harvest runs each serve stream through a Session for sc.harvest samples,
// one goroutine per stream, and writes the raw samples to path. It returns
// a digest of the file's content.
func harvest(ctx context.Context, det *perspectron.Detector, sc scale, seed int64, path string) (string, error) {
	streams := serveStreams()
	per := make([][]replaySample, len(streams))
	errs := make([]error, len(streams))
	var wg sync.WaitGroup
	for i, w := range streams {
		wg.Add(1)
		go func(i int, w perspectron.Workload) {
			defer wg.Done()
			per[i], errs[i] = harvestStream(ctx, det, w, uint64(sc.harvest)*det.Interval, seed+int64(i))
		}(i, w)
	}
	wg.Wait()
	var all []replaySample
	for i := range streams {
		if errs[i] != nil {
			return "", errs[i]
		}
		all = append(all, per[i]...)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(all); err != nil {
		return "", fmt.Errorf("encoding replay samples: %w", err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

func harvestStream(ctx context.Context, det *perspectron.Detector, w perspectron.Workload, insts uint64, seed int64) ([]replaySample, error) {
	sess, err := perspectron.NewSession(ctx, det, nil, perspectron.SessionConfig{Workload: w, MaxInsts: insts, Seed: seed})
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	var out []replaySample
	for {
		rs, ok := sess.NextRaw(ctx)
		if !ok {
			break
		}
		out = append(out, replaySample{Stream: w.Info().Name, Sample: rs.Sample, Raw: rs.Raw})
	}
	if err := sess.Err(); err != nil {
		return nil, fmt.Errorf("harvesting %s: %w", w.Info().Name, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("harvesting %s: no samples", w.Info().Name)
	}
	return out, nil
}

// loadReplay reads the harvested samples.
func loadReplay(path string) ([]replaySample, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []replaySample
	if err := gob.NewDecoder(f).Decode(&out); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	return out, nil
}
