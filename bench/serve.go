package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"perspectron"
	"perspectron/internal/serve"
	"perspectron/internal/workload"
)

// sloMs is serve's default per-verdict latency objective
// (Config.SLOLatencyTarget).
const sloMs = 50.0

// serveRep runs the supervisor the way `perspectron serve` does by default
// — detector only, forensics on, crash-safe file-mode verdict log, 500 ms
// checkpoint poll — over the four closed-loop serve streams for budget,
// then cancels, drains and checks what it wrote.
func serveRep(ctx context.Context, art, dir string, seed int64, budget time.Duration, sc scale, tr *tracer, res *childResult) error {
	// The checkpoint is copied into the rep's own dir because serve writes
	// its .last-good copies next to it.
	detPath := filepath.Join(dir, detectorFile)
	if err := copyFile(filepath.Join(art, detectorFile), detPath); err != nil {
		return err
	}
	det, err := perspectron.LoadFile(detPath)
	if err != nil {
		return err
	}
	logPath := filepath.Join(dir, "verdicts.jsonl")

	root := tr.begin("serve-sim", 0)
	id := tr.begin("serve.New", root)
	sup, err := serve.New(serve.Config{
		DetectorPath:   detPath,
		Workloads:      serveStreams(),
		MaxInsts:       sc.streamInsts,
		Seed:           seed,
		VerdictLogPath: logPath,
	})
	tr.end(id)
	if err != nil {
		return err
	}

	runCtx, cancel := context.WithTimeout(ctx, budget)
	defer cancel()
	id = tr.begin("serve.Run", root)
	cpu0 := cpuSeconds()
	start := time.Now()
	res.Rates, err = runSampled(runCtx, sup)
	wall := time.Since(start).Seconds()
	cpu := cpuSeconds() - cpu0
	tr.end(id)
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("serve run: %w", err)
	}
	h := sup.Health()

	id = tr.begin("serve.ReadVerdictLog", root)
	all, corrupt, _, err := serve.ReadVerdictLog(logPath, 0)
	tr.end(id)
	if err != nil {
		return err
	}
	if corrupt != 0 {
		return fmt.Errorf("verdict log has %d corrupt lines", corrupt)
	}
	var recs []serve.VerdictRecord
	for _, r := range all {
		if r.Mode != serve.ModeRecovery {
			recs = append(recs, r)
		}
	}

	id = tr.begin("serve.Explain", root)
	err = checkExplain(det, recs)
	tr.end(id)
	tr.end(root)
	if err != nil {
		return err
	}
	if err := checkLedger(h, len(recs)); err != nil {
		return err
	}
	return foldServe(h, recs, wall, cpu, det.Interval, res)
}

// rateWindow is how often serve's verdict count is sampled while it runs.
const rateWindow = 500 * time.Millisecond

// runSampled runs sup until ctx ends and, meanwhile, samples its verdict
// rate once per rateWindow: the median window shrugs off a host stall
// that a whole-run average would absorb.
func runSampled(ctx context.Context, sup *serve.Supervisor) ([]float64, error) {
	done := make(chan error, 1)
	go func() { done <- sup.Run(ctx) }()
	tick := time.NewTicker(rateWindow)
	defer tick.Stop()
	var rates []float64
	last, lastT := 0, time.Now()
	for {
		select {
		case err := <-done:
			return rates, err
		case now := <-tick.C:
			v := sup.Health().Verdicts
			rates = append(rates, float64(v-last)/now.Sub(lastT).Seconds())
			last, lastT = v, now
		}
	}
}

// checkLedger verifies serve's durable accounting after a clean drain:
// every admitted sample is a record on disk (Enqueued == Records + Lost),
// nothing was lost, and the log holds exactly Records sample records.
func checkLedger(h serve.Health, onDisk int) error {
	d := h.Durable
	if d == nil {
		return fmt.Errorf("serve reported no durable ledger in file mode")
	}
	if d.Enqueued != d.Records+d.Lost {
		return fmt.Errorf("ledger unbalanced: enqueued %d != records %d + lost %d", d.Enqueued, d.Records, d.Lost)
	}
	if d.Lost != 0 {
		return fmt.Errorf("ledger lost %d verdicts on a clean drain", d.Lost)
	}
	if int64(onDisk) != d.Records {
		return fmt.Errorf("ledger counts %d records, log holds %d", d.Records, onDisk)
	}
	return nil
}

// checkExplain re-derives every attributed record offline and requires a
// bit-for-bit match with what serving logged.
func checkExplain(det *perspectron.Detector, recs []serve.VerdictRecord) error {
	n := 0
	for _, r := range recs {
		if r.Fired == nil {
			continue
		}
		e, err := serve.Explain(det, r, false)
		if err != nil {
			return err
		}
		if !e.Consistent() {
			return fmt.Errorf("verdict %s/%d/%d does not re-derive: %v", r.Worker, r.Episode, r.Sample, e.Diffs)
		}
		n++
	}
	if n == 0 {
		return fmt.Errorf("no attributed verdicts to explain among %d records", len(recs))
	}
	return nil
}

// foldServe turns one serve run's health and records into the rep's
// result. An operation is a produced sample; it fails if it was shed,
// scored in mode "error", lost, or came from a stream whose episodes
// failed.
func foldServe(h serve.Health, recs []serve.VerdictRecord, wall, cpu float64, interval uint64, res *childResult) error {
	failedStream := map[string]bool{}
	res.Completed = map[string]int{}
	var episodes, failures, shed int64
	for _, w := range h.Workers {
		res.Completed[w.Worker] = int(w.Episodes)
		episodes += w.Episodes
		failures += w.Failures
		failedStream[w.Worker] = w.Failures > 0
	}
	for _, s := range h.Shards {
		shed += s.Shed
	}
	attack := map[string]bool{}
	for _, w := range serveStreams() {
		attack[w.Info().Name] = w.Info().Label == workload.Malicious
	}

	res.Seconds, res.CPUSeconds = wall, cpu
	res.Attempted = int(h.Durable.Enqueued)
	res.Stages = map[string][]float64{}
	res.Digest = map[string]string{}
	var pos, tp, neg, fp, scored int
	for _, r := range recs {
		bad := r.Shed || r.Mode == "error" || failedStream[r.Worker]
		if bad {
			res.Failed++
			continue
		}
		scored++
		res.LatencyMs = append(res.LatencyMs, r.LatencyMs)
		res.Stages["queue"] = append(res.Stages["queue"], r.QueueMs)
		res.Stages["batch"] = append(res.Stages["batch"], r.BatchMs)
		res.Stages["score"] = append(res.Stages["score"], r.ScoreMs)
		res.Stages["log"] = append(res.Stages["log"], r.LatencyMs-r.QueueMs-r.BatchMs-r.ScoreMs)
		if attack[r.Worker] {
			pos++
			if r.Flagged {
				tp++
			}
		} else {
			neg++
			if r.Flagged {
				fp++
			}
		}
		if r.Episode < res.Completed[r.Worker] {
			key := fmt.Sprintf("%s/%d/%d", r.Worker, r.Episode, r.Sample)
			res.Digest[key] = fmt.Sprintf("%x %t", math.Float64bits(r.Score), r.Flagged)
		}
	}
	res.Failed += int(h.Durable.Lost)
	if scored == 0 {
		return fmt.Errorf("serve scored no samples in %.1fs", wall)
	}
	res.Layer["serve.episodes"] = float64(episodes)
	res.Layer["serve.episode_failures"] = float64(failures)
	res.Layer["serve.shed"] = float64(shed)
	res.Layer["serve.lost"] = float64(h.Durable.Lost)
	res.Layer["serve.tpr"] = ratio(tp, pos)
	res.Layer["serve.fpr"] = ratio(fp, neg)
	res.Layer["serve.cpu_util"] = cpuUtil(cpu, wall)
	res.SimInstsPerS = float64(len(recs)) * float64(interval) / wall
	within := 0
	for _, l := range res.LatencyMs {
		if l <= sloMs {
			within++
		}
	}
	res.Layer["serve.within_slo_frac"] = ratio(within, res.Attempted)
	return nil
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
