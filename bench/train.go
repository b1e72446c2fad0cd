package main

import (
	"context"
	"io"
	"time"

	"perspectron"
	"perspectron/internal/corpus"
	"perspectron/internal/features"
	"perspectron/internal/trace"
)

// runTrainRep trains the detector cold — perspectron.Train on the training
// workloads at `perspectron train`'s defaults — once. Each rep is a fresh
// process, so the training finds nothing memoized, and every rep trains
// the same seed, so the reps' checkpoints must match. An operation is a
// collection run; it fails if it is dropped.
//
// Traced, the training is issued as its three phases (see trainPhased) so
// the spans add up to the whole.
func runTrainRep(ctx context.Context, a childArgs, sc scale, tr *tracer, res *childResult) error {
	ws := perspectron.TrainingWorkloads()
	opts := withSeed(sc.train, a.seed)
	cpu0 := cpuSeconds()
	start := time.Now()
	var det *perspectron.Detector
	var err error
	if tr == nil {
		det, err = perspectron.Train(ws, opts)
	} else {
		det, _, err = trainPhased(ctx, tr, 0, ws, opts)
	}
	res.Seconds = time.Since(start).Seconds()
	res.CPUSeconds = cpuSeconds() - cpu0
	if err != nil {
		return err
	}
	if err := det.Save(io.Discard); err != nil { // stamps det.Checksum
		return err
	}
	ds := corpus.Default().Dataset(ws, opts.CollectConfig()) // memoized: free
	res.Attempted = collectionRuns(ds)
	res.Failed = len(ds.Dropped)
	res.LatencyMs = []float64{res.Seconds * 1e3}
	res.Rates = []float64{1 / res.Seconds}
	res.Digest = map[string]string{"detector": det.Checksum}
	return nil
}

// trainPhases are one phased training's per-layer timings.
type trainPhases struct {
	collectS, collectCPUUtil, selectS, fitS float64
	ds                                      *trace.Dataset
}

// trainPhased is perspectron.Train split into its collection
// (Store.DatasetCtx), selection (Store.PreparedCtx) and fit phases — Train
// then finds the first two memoized — each timed under its own span, all
// under a "train" span below parent.
func trainPhased(ctx context.Context, tr *tracer, parent int, ws []perspectron.Workload, opts perspectron.Options) (*perspectron.Detector, trainPhases, error) {
	store := corpus.Default()
	selCfg := features.DefaultSelectConfig()
	selCfg.MaxFeatures = opts.MaxFeatures
	var ph trainPhases
	root := tr.begin("train", parent)
	defer tr.end(root)

	id := tr.begin("corpus.DatasetCtx", root)
	cpu0, t := cpuSeconds(), time.Now()
	ph.ds = store.DatasetCtx(ctx, ws, opts.CollectConfig())
	ph.collectS = time.Since(t).Seconds()
	ph.collectCPUUtil = cpuUtil(cpuSeconds()-cpu0, ph.collectS)
	tr.end(id)

	id = tr.begin("corpus.PreparedCtx", root)
	t = time.Now()
	store.PreparedCtx(ctx, ws, opts.CollectConfig(), selCfg)
	ph.selectS = time.Since(t).Seconds()
	tr.end(id)

	id = tr.begin("perspectron.Train", root)
	t = time.Now()
	det, err := perspectron.Train(ws, opts)
	ph.fitS = time.Since(t).Seconds()
	tr.end(id)
	return det, ph, err
}

// collectionRuns counts the program runs a collection attempted: the runs
// that produced samples plus the runs it dropped.
func collectionRuns(ds *trace.Dataset) int {
	type run struct {
		prog string
		run  int
	}
	seen := map[run]bool{}
	for i := range ds.Samples {
		seen[run{ds.Samples[i].Program, ds.Samples[i].Run}] = true
	}
	return len(seen) + len(ds.Dropped)
}
