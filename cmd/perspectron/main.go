// Command perspectron trains and runs the PerSpectron detector.
//
// Subcommands:
//
//	perspectron train  [-out detector.json] [-insts N] [-runs N] [-seed N] [-cachedir DIR]
//	perspectron detect [-in detector.json] -workload <name> [-channel fr|ff|pp]
//	                   [-bandwidth F] [-poly N] [-insts N] [-seed N]
//	                   [-dropout F] [-stuck0 F] [-stuckmax F] [-noise F]
//	                   [-jitter F] [-blackout comp[:from[:to]]] [-faultseed N]
//	perspectron info   [-in detector.json]
//	perspectron serve  [-in detector.json] [-classifier classifier.json]
//	                   [-workloads name,name|all|attacks|benign] [-channel fr|ff|pp]
//	                   [-insts N] [-seed N] [-episodes N] [-verdicts FILE]
//	                   [-poll D] [-attr-benign-every N] [-state FILE] [-log-flush D]
//	                   [-disk-faults SPEC] [-disk-fault-seed N]
//	                   [-shadow] [-shadow-workloads SPEC] [-shadow-interval D]
//	                   [-shadow-budget N] [-shadow-insts N]
//	perspectron explain -verdicts FILE [-in detector.json]
//	                   [-trace ID | -index N] [-force] [-json]
//	perspectron list
//
// `detect` monitors the named workload on a fresh simulated machine and
// prints the per-interval confidence, the flag point, and whether detection
// preceded the first disclosure. The fault flags inject deterministic
// counter-level faults into the sampled vectors (see docs/FAULTS.md); the
// detector then runs in degraded mode and the report states its coverage.
//
// `serve` runs the long-lived supervised detection service (docs/SERVICE.md):
// one worker per workload, each scoring its raw samples on its own
// goroutine as they complete, checkpoint hot-reload with rollback, graceful
// degradation on counter coverage, and /healthz + /readyz next to /metrics
// when -metrics-addr is given. SIGINT/SIGTERM drains cleanly,
// flushing the verdict log.
//
// `explain` reconstructs a recorded verdict offline (docs/OBSERVABILITY.md):
// given the JSONL verdict log and the detector checkpoint version stamped
// into the record, it re-derives the score and the top-k weight×bit feature
// attributions from the recorded fired set and diffs them against what the
// serving path logged — bit-for-bit when nothing was tampered with. Exit
// status 1 means the reconstruction diverged.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"perspectron"
	"perspectron/internal/corpus"
	"perspectron/internal/diskfaults"
	"perspectron/internal/serve"
	"perspectron/internal/shadow"
	"perspectron/internal/telemetry/telemetrycli"
)

// armDiskFaults installs the process-wide disk-fault injector from a
// -disk-faults rule spec (no-op when the spec is empty). The injected write
// paths are the durability sites: checkpoint saves, the verdict log, the
// corpus disk cache, and the serve/shadow state files.
func armDiskFaults(spec string, seed int64) {
	if spec == "" {
		return
	}
	if err := diskfaults.ArmSpec(diskfaults.Enable(seed), spec); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "disk faults armed: %s (seed %d)\n", spec, seed)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "train":
		cmdTrain(os.Args[2:])
	case "detect":
		cmdDetect(os.Args[2:])
	case "classify-train":
		cmdClassifyTrain(os.Args[2:])
	case "classify":
		cmdClassify(os.Args[2:])
	case "info":
		cmdInfo(os.Args[2:])
	case "serve":
		cmdServe(os.Args[2:])
	case "shadow":
		cmdShadow(os.Args[2:])
	case "explain":
		cmdExplain(os.Args[2:])
	case "list":
		cmdList()
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: perspectron {train|detect|classify-train|classify|info|serve|shadow|explain|list} [flags]")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perspectron:", err)
	os.Exit(1)
}

func cmdTrain(args []string) {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	out := fs.String("out", "detector.json", "output path for the trained detector")
	insts := fs.Uint64("insts", 300_000, "committed instructions per training run")
	runs := fs.Int("runs", 2, "runs per workload")
	seed := fs.Int64("seed", 1, "random seed")
	interval := fs.Uint64("interval", 10_000, "sampling granularity")
	cacheDir := fs.String("cachedir", "", "on-disk corpus cache directory (reuses collected datasets across invocations)")
	tel := telemetrycli.Register(fs)
	fs.Parse(args)
	stop, err := tel.Start()
	if err != nil {
		fatal(err)
	}
	defer stop()

	opts := perspectron.DefaultOptions()
	opts.MaxInsts = *insts
	opts.Runs = *runs
	opts.Seed = *seed
	opts.Interval = *interval
	if *cacheDir != "" {
		if err := perspectron.SetCacheDir(*cacheDir); err != nil {
			fatal(err)
		}
	}

	fmt.Fprintln(os.Stderr, "training on the full workload corpus...")
	workloads := perspectron.TrainingWorkloads()
	det, err := perspectron.Train(workloads, opts)
	if err != nil {
		fatal(err)
	}
	// Re-fetch the training dataset (a free memory hit on the corpus store)
	// to surface collection health: runs dropped after a workload panic.
	ds := corpus.Default().Dataset(workloads, opts.CollectConfig())
	if len(ds.Dropped) > 0 {
		fmt.Fprintf(os.Stderr, "collection: %d runs dropped\n", len(ds.Dropped))
		for _, d := range ds.Dropped {
			fmt.Fprintf(os.Stderr, "  dropped %s\n", d)
		}
	}
	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := det.Save(f); err != nil {
		fatal(err)
	}
	h := det.Hardware()
	fmt.Fprintf(os.Stderr, "trained detector: %d features, threshold %.2f\n",
		det.NumFeatures(), det.Threshold)
	fmt.Fprintf(os.Stderr, "hardware: %d-cycle inference, %d weight bits, %.2f µs sampling\n",
		h.InferenceCycles(), h.WeightStorageBits(), h.SamplingIntervalUs())
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
}

func loadDetector(path string) *perspectron.Detector {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	det, err := perspectron.Load(f)
	if err != nil {
		fatal(err)
	}
	return det
}

func cmdDetect(args []string) {
	fs := flag.NewFlagSet("detect", flag.ExitOnError)
	in := fs.String("in", "detector.json", "trained detector path")
	name := fs.String("workload", "", "workload to monitor (see `perspectron list`)")
	channel := fs.String("channel", "fr", "disclosure channel for attacks")
	bandwidth := fs.Float64("bandwidth", 1.0, "attack bandwidth factor (1.0 = unmodified)")
	poly := fs.Int("poly", -1, "polymorphic SpectreV1 variant index (0-11), -1 = off")
	insts := fs.Uint64("insts", 200_000, "instructions to monitor")
	seed := fs.Int64("seed", 42, "workload seed")
	dropout := fs.Float64("dropout", 0, "per-sample probability each counter reading is lost")
	stuck0 := fs.Float64("stuck0", 0, "fraction of counters stuck at zero for the whole run")
	stuckMax := fs.Float64("stuckmax", 0, "fraction of counters stuck at their saturation value")
	noise := fs.Float64("noise", 0, "relative sigma of multiplicative Gaussian counter noise")
	jitter := fs.Float64("jitter", 0, "sampling-interval jitter fraction")
	blackout := fs.String("blackout", "", "black out one component: comp[:from[:to]] (e.g. dcache:2:5)")
	faultSeed := fs.Int64("faultseed", 1, "fault-schedule seed")
	tel := telemetrycli.Register(fs)
	fs.Parse(args)
	stop, err := tel.Start()
	if err != nil {
		fatal(err)
	}
	defer stop()
	if *name == "" && *poly < 0 {
		fmt.Fprintln(os.Stderr, "detect: -workload required (or -poly)")
		os.Exit(2)
	}
	fc := perspectron.FaultConfig{
		Seed:      *faultSeed,
		Dropout:   *dropout,
		StuckZero: *stuck0,
		StuckMax:  *stuckMax,
		Noise:     *noise,
		Jitter:    *jitter,
	}
	if *blackout != "" {
		parts := strings.SplitN(*blackout, ":", 3)
		fc.Blackout = parts[0]
		var err error
		if len(parts) > 1 {
			if fc.BlackoutFrom, err = strconv.Atoi(parts[1]); err != nil {
				fatal(fmt.Errorf("bad -blackout window %q: %v", *blackout, err))
			}
		}
		if len(parts) > 2 {
			if fc.BlackoutTo, err = strconv.Atoi(parts[2]); err != nil {
				fatal(fmt.Errorf("bad -blackout window %q: %v", *blackout, err))
			}
		}
	}

	det := loadDetector(*in)
	var w perspectron.Workload
	switch {
	case *poly >= 0:
		w = perspectron.PolymorphicVariants(*channel)[*poly%12]
	default:
		w = perspectron.AttackByName(*name, *channel)
		if w == nil {
			for _, b := range perspectron.BenignWorkloads() {
				if b.Info().Name == *name {
					w = b
				}
			}
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "unknown workload %q; try `perspectron list`\n", *name)
		os.Exit(2)
	}
	if *bandwidth < 1.0 {
		w = perspectron.ReduceBandwidth(w, *bandwidth)
	}

	rec, err := perspectron.Record(context.Background(), w, *insts, *seed, det.Interval)
	if err != nil {
		fatal(err)
	}
	// A FaultConfig that selects no fault injects nothing.
	rep, err := det.Replay(rec, &fc)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("workload: %s (ground truth: malicious=%v)\n", rep.Workload, rep.Malicious)
	if rep.Degraded {
		fmt.Printf("DEGRADED mode: %.1f%% of the feature set observable\n", rep.Coverage*100)
	}
	for _, s := range rep.Samples {
		mark := " "
		if s.Flagged {
			mark = "!"
		}
		fmt.Printf("  sample %3d  insts %8d  score %+.3f %s\n", s.Index, s.Insts, s.Score, mark)
	}
	if rep.Detected {
		fmt.Printf("DETECTED at sample %d", rep.FirstFlag)
		if len(rep.LeakSamples) > 0 {
			if rep.LeakBefore {
				fmt.Printf(" (first leak at sample %d: post-leakage)", rep.LeakSamples[0])
			} else {
				fmt.Printf(" (first leak at sample %d: detected pre-leakage)", rep.LeakSamples[0])
			}
		}
		fmt.Println()
	} else {
		fmt.Println("no detection")
	}
}

func cmdInfo(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	in := fs.String("in", "detector.json", "trained detector path")
	fs.Parse(args)
	det := loadDetector(*in)
	fmt.Printf("features:  %d\n", det.NumFeatures())
	fmt.Printf("threshold: %.2f\n", det.Threshold)
	fmt.Printf("interval:  %d instructions\n", det.Interval)
	h := det.Hardware()
	fmt.Printf("hardware:  %d-cycle inference, %d weight bits, %.2f µs sampling\n",
		h.InferenceCycles(), h.WeightStorageBits(), h.SamplingIntervalUs())
	sus, ben := det.TopFeatures(8)
	fmt.Println("\nmost suspicious features:")
	for _, f := range sus {
		fmt.Printf("  %+8.3f  %s\n", f.Weight, f.Name)
	}
	fmt.Println("most benign features:")
	for _, f := range ben {
		fmt.Printf("  %+8.3f  %s\n", f.Weight, f.Name)
	}
}

func cmdClassifyTrain(args []string) {
	fs := flag.NewFlagSet("classify-train", flag.ExitOnError)
	out := fs.String("out", "classifier.json", "output path for the trained classifier")
	insts := fs.Uint64("insts", 300_000, "committed instructions per training run")
	runs := fs.Int("runs", 2, "runs per workload")
	seed := fs.Int64("seed", 1, "random seed")
	cacheDir := fs.String("cachedir", "", "on-disk corpus cache directory (shared with `perspectron train`)")
	tel := telemetrycli.Register(fs)
	fs.Parse(args)
	stop, err := tel.Start()
	if err != nil {
		fatal(err)
	}
	defer stop()

	opts := perspectron.DefaultOptions()
	opts.MaxInsts = *insts
	opts.Runs = *runs
	opts.Seed = *seed
	if *cacheDir != "" {
		if err := perspectron.SetCacheDir(*cacheDir); err != nil {
			fatal(err)
		}
	}

	fmt.Fprintln(os.Stderr, "training the multi-way classifier...")
	c, err := perspectron.TrainClassifier(perspectron.TrainingWorkloads(), opts)
	if err != nil {
		fatal(err)
	}
	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := c.Save(f); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "classes: %v\nwrote %s\n", c.Classes, *out)
}

func cmdClassify(args []string) {
	fs := flag.NewFlagSet("classify", flag.ExitOnError)
	in := fs.String("in", "classifier.json", "trained classifier path")
	name := fs.String("workload", "", "workload to classify")
	channel := fs.String("channel", "fr", "disclosure channel for attacks")
	insts := fs.Uint64("insts", 100_000, "instructions to observe")
	seed := fs.Int64("seed", 42, "workload seed")
	tel := telemetrycli.Register(fs)
	fs.Parse(args)
	stop, err := tel.Start()
	if err != nil {
		fatal(err)
	}
	defer stop()
	if *name == "" {
		fmt.Fprintln(os.Stderr, "classify: -workload required")
		os.Exit(2)
	}

	f, err := os.Open(*in)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	c, err := perspectron.LoadClassifier(f)
	if err != nil {
		fatal(err)
	}

	w := perspectron.AttackByName(*name, *channel)
	if w == nil {
		for _, b := range perspectron.BenignWorkloads() {
			if b.Info().Name == *name {
				w = b
			}
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *name)
		os.Exit(2)
	}
	res, err := c.Classify(w, *insts, *seed)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("workload: %s\nclass:    %s (%.0f%% of intervals)\nvotes:    %v\n",
		res.Workload, res.Class, res.Confidence*100, res.Votes)
}

// resolveWorkloads expands the -workloads flag: "all" (training corpus),
// "attacks", "benign", or a comma-separated list of workload names resolved
// like `detect` does.
func resolveWorkloads(spec, channel string) ([]perspectron.Workload, error) {
	switch spec {
	case "all":
		return perspectron.TrainingWorkloads(), nil
	case "attacks":
		return perspectron.AttackWorkloads(), nil
	case "benign":
		return perspectron.BenignWorkloads(), nil
	}
	var progs []perspectron.Workload
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		w := perspectron.AttackByName(name, channel)
		if w == nil {
			for _, b := range perspectron.BenignWorkloads() {
				if b.Info().Name == name {
					w = b
				}
			}
		}
		if w == nil {
			return nil, fmt.Errorf("unknown workload %q; try `perspectron list`", name)
		}
		progs = append(progs, w)
	}
	if len(progs) == 0 {
		return nil, fmt.Errorf("-workloads resolved to nothing")
	}
	return progs, nil
}

func cmdServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	in := fs.String("in", "detector.json", "detector checkpoint to serve and watch for hot-reload")
	clsPath := fs.String("classifier", "", "optional classifier checkpoint (enables the top ladder rung)")
	spec := fs.String("workloads", "benign", "streams to monitor: all|attacks|benign or comma-separated names")
	channel := fs.String("channel", "fr", "disclosure channel for attack workloads")
	insts := fs.Uint64("insts", 100_000, "committed instructions per episode")
	seed := fs.Int64("seed", 1, "base seed, varied per worker and episode")
	episodes := fs.Int("episodes", 0, "stop each worker after N episodes (0 = run until signalled)")
	verdicts := fs.String("verdicts", "-", "verdict log destination: - for stdout, empty to disable, else a file (appended)")
	poll := fs.Duration("poll", 500*time.Millisecond, "checkpoint watch cadence (negative disables hot-reload)")
	attrBenign := fs.Int("attr-benign-every", 0, "also attribute every Nth benign verdict per stream (0 = off)")
	shadowOn := fs.Bool("shadow", false, "run the continual-learning shadow trainer in-process (retrain + gated promotion against -in)")
	shadowSpec := fs.String("shadow-workloads", "all", "shadow trainer's fresh-corpus source: all|attacks|benign or names")
	shadowInterval := fs.Duration("shadow-interval", 30*time.Second, "cadence of shadow-training rounds")
	shadowBudget := fs.Int("shadow-budget", perspectron.DefaultIncrementEpochs, "incremental epochs per shadow round")
	shadowInsts := fs.Uint64("shadow-insts", 120_000, "committed instructions per shadow fresh-corpus run")
	statePath := fs.String("state", "", "durable accounting state file for file-based -verdicts (default <verdicts>.state)")
	logFlush := fs.Duration("log-flush", 0, "verdict-log flush + state-persist cadence in file mode (0 = 500ms)")
	faultSpec := fs.String("disk-faults", "", "inject disk faults: comma-separated site:op:kind[:after=N][:count=N][:rate=F] rules (sites checkpoint|verdictlog|corpus|servestate|shadowstate|*; ops create|write|sync|rename; kinds torn|enospc|eio|syncfail|crash)")
	faultDiskSeed := fs.Int64("disk-fault-seed", 1, "seed for probabilistic (rate=) disk-fault rules")
	tel := telemetrycli.Register(fs)
	fs.Parse(args)

	armDiskFaults(*faultSpec, *faultDiskSeed)

	workloads, err := resolveWorkloads(*spec, *channel)
	if err != nil {
		fatal(err)
	}
	cfg := serve.Config{
		DetectorPath:   *in,
		ClassifierPath: *clsPath,
		Workloads:      workloads,
		MaxInsts:       *insts,
		Seed:           *seed,
		MaxEpisodes:    *episodes,
		PollInterval:   *poll,

		AttrBenignEvery: *attrBenign,
	}
	switch *verdicts {
	case "":
	case "-":
		cfg.VerdictLog = os.Stdout
	default:
		// File-based verdicts run in crash-safe mode: the supervisor owns
		// the file, repairs any torn tail from a previous crash, reconciles
		// the durable accounting ledger, and flushes on a cadence.
		cfg.VerdictLogPath = *verdicts
		cfg.StatePath = *statePath
		cfg.LogFlushInterval = *logFlush
	}

	sup, err := serve.New(cfg)
	if err != nil {
		fatal(err)
	}
	if rep := sup.Report(); rep != nil {
		fmt.Fprintln(os.Stderr, "serve: "+rep.String())
	}
	// Health endpoints ride on the metrics server; register before Start.
	tel.Extra = sup.Handlers()
	stop, err := tel.Start()
	if err != nil {
		fatal(err)
	}
	defer stop()
	sup.SetListenAddr(tel.Bound) // /healthz self-reports the scrape address

	det, cls := sup.Models().Versions()
	fmt.Fprintf(os.Stderr, "serve: %d workers, detector %s, classifier %s\n",
		len(workloads), det, cls)

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	// In-process shadow trainer: retrains -in incrementally in the
	// background and promotes through the gate; the supervisor's watcher
	// hot-reloads whatever gets promoted, and its health surface reflects
	// the trainer's drift EWMA.
	var shadowWg sync.WaitGroup
	if *shadowOn {
		shadowWorkloads, err := resolveWorkloads(*shadowSpec, *channel)
		if err != nil {
			fatal(err)
		}
		sopts := perspectron.DefaultOptions()
		sopts.MaxInsts = *shadowInsts
		sopts.Runs = 1
		sopts.Seed = *seed
		scfg := shadow.Config{
			DetectorPath: *in,
			Workloads:    shadowWorkloads,
			Opts:         sopts,
			Budget:       *shadowBudget,
			Interval:     *shadowInterval,
		}
		if *verdicts != "" && *verdicts != "-" {
			scfg.VerdictLog = *verdicts
		}
		trainer, err := shadow.New(scfg)
		if err != nil {
			fatal(err)
		}
		sup.SetDriftProbe(trainer.Drift)
		shadowWg.Add(1)
		go func() {
			defer shadowWg.Done()
			trainer.Run(ctx)
		}()
		fmt.Fprintf(os.Stderr, "serve: shadow trainer every %s (budget %d epochs/round)\n",
			*shadowInterval, *shadowBudget)
	}

	err = sup.Run(ctx)
	cancel() // release the shadow trainer when workers finish first
	shadowWg.Wait()
	switch {
	case err == nil:
		fmt.Fprintln(os.Stderr, "serve: all workers completed")
	case errors.Is(err, context.Canceled):
		fmt.Fprintln(os.Stderr, "serve: drained cleanly on signal")
	default:
		fatal(err)
	}
}

// cmdShadow runs the continual-learning loop standalone: tail a serving
// verdict log (optional), retrain the live checkpoint incrementally on
// fresh corpus rounds, and promote candidates through the non-regression
// gate. A `perspectron serve` watching the same checkpoint hot-reloads
// every promotion.
func cmdShadow(args []string) {
	fs := flag.NewFlagSet("shadow", flag.ExitOnError)
	in := fs.String("in", "detector.json", "live detector checkpoint to retrain and promote")
	verdicts := fs.String("verdicts", "", "serving verdict log (JSONL file) to tail; empty disables")
	statePath := fs.String("state", "", "tail-offset state file, persisted atomically per round (default <verdicts>.offset)")
	faultSpec := fs.String("disk-faults", "", "inject disk faults (see `perspectron serve -h` for the rule grammar)")
	faultDiskSeed := fs.Int64("disk-fault-seed", 1, "seed for probabilistic (rate=) disk-fault rules")
	spec := fs.String("workloads", "all", "fresh-corpus source: all|attacks|benign or comma-separated names")
	channel := fs.String("channel", "fr", "disclosure channel for attack workloads")
	interval := fs.Duration("interval", 30*time.Second, "round cadence")
	budget := fs.Int("budget", perspectron.DefaultIncrementEpochs, "incremental epochs per round")
	rounds := fs.Int("rounds", 0, "run N rounds then exit (0 = run until signalled)")
	insts := fs.Uint64("insts", 120_000, "committed instructions per fresh-corpus run")
	runs := fs.Int("runs", 1, "runs per workload per round")
	seed := fs.Int64("seed", 1, "base seed, varied per round")
	cacheDir := fs.String("cachedir", "", "on-disk corpus cache directory")
	tel := telemetrycli.Register(fs)
	fs.Parse(args)

	workloads, err := resolveWorkloads(*spec, *channel)
	if err != nil {
		fatal(err)
	}
	if *cacheDir != "" {
		if err := perspectron.SetCacheDir(*cacheDir); err != nil {
			fatal(err)
		}
	}
	opts := perspectron.DefaultOptions()
	opts.MaxInsts = *insts
	opts.Runs = *runs
	opts.Seed = *seed
	armDiskFaults(*faultSpec, *faultDiskSeed)
	trainer, err := shadow.New(shadow.Config{
		DetectorPath: *in,
		VerdictLog:   *verdicts,
		StatePath:    *statePath,
		Workloads:    workloads,
		Opts:         opts,
		Budget:       *budget,
		Interval:     *interval,
	})
	if err != nil {
		fatal(err)
	}
	tel.Extra = trainer.Handlers()
	stop, err := tel.Start()
	if err != nil {
		fatal(err)
	}
	defer stop()
	trainer.SetListenAddr(tel.Bound)

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if *rounds > 0 {
		for i := 0; i < *rounds && ctx.Err() == nil; i++ {
			r, err := trainer.RunOnce(ctx)
			if err != nil {
				fatal(err)
			}
			status := "rejected"
			if r.Promotion != nil && r.Promotion.Promoted {
				status = "promoted " + r.Promotion.CandidateVersion
			}
			fmt.Fprintf(os.Stderr,
				"shadow: round %d: %d fresh samples, %d epochs, drift %.4f (ewma %.4f), %s (%s)\n",
				r.Round, r.FreshSamples, r.Epochs, r.Drift, r.SmoothedDrift, status, r.Promotion.Reason)
		}
		h := trainer.Health()
		fmt.Fprintf(os.Stderr, "shadow: %d rounds, %d promoted, %d rejected, drift %.4f\n",
			h.Rounds, h.Promotions, h.Rejections, h.Drift)
		return
	}
	fmt.Fprintf(os.Stderr, "shadow: training every %s against %s\n", *interval, *in)
	if err := trainer.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "shadow: stopped on signal")
}

// cmdExplain is the offline half of verdict forensics: pick one record out
// of a JSONL verdict log (by trace ID, by position, or the most recent
// attributed one), re-derive its score and top-k feature attributions from
// the recorded fired set using the detector checkpoint, and diff the
// reconstruction against what the serving path logged. A consistent record
// reproduces bit-for-bit; exit status 1 flags divergence (a tampered log, a
// wrong checkpoint, or a scoring bug).
func cmdExplain(args []string) {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	verdicts := fs.String("verdicts", "", "JSONL verdict log to read (required)")
	in := fs.String("in", "detector.json", "detector checkpoint that produced the verdicts")
	trace := fs.String("trace", "", "select the record with this trace ID (worker/episode/sample)")
	index := fs.Int("index", -1, "select the Nth record in the log, 0-based (-1 = last attributed record)")
	force := fs.Bool("force", false, "explain across a checkpoint-version mismatch (expect diffs)")
	asJSON := fs.Bool("json", false, "emit the full explanation as JSON instead of the report")
	fs.Parse(args)
	if *verdicts == "" {
		fmt.Fprintln(os.Stderr, "explain: -verdicts required")
		os.Exit(2)
	}

	recs, corrupt, _, err := serve.ReadVerdictLog(*verdicts, 0)
	if err != nil {
		fatal(err)
	}
	if corrupt > 0 {
		fmt.Fprintf(os.Stderr, "explain: skipped %d corrupt lines\n", corrupt)
	}
	if len(recs) == 0 {
		fatal(fmt.Errorf("no verdict records in %s", *verdicts))
	}
	var rec *serve.VerdictRecord
	switch {
	case *trace != "":
		for i := range recs {
			if recs[i].Trace == *trace {
				rec = &recs[i]
				break
			}
		}
		if rec == nil {
			fatal(fmt.Errorf("no record with trace %q in %s", *trace, *verdicts))
		}
	case *index >= 0:
		if *index >= len(recs) {
			fatal(fmt.Errorf("index %d out of range: %s holds %d records", *index, *verdicts, len(recs)))
		}
		rec = &recs[*index]
	default:
		for i := len(recs) - 1; i >= 0; i-- {
			if len(recs[i].Fired) > 0 {
				rec = &recs[i]
				break
			}
		}
		if rec == nil {
			fatal(fmt.Errorf("no attributed records in %s (serve attributes flagged verdicts; see -attr-benign-every)", *verdicts))
		}
	}

	det := loadDetector(*in)
	e, err := serve.Explain(det, *rec, *force)
	if err != nil {
		fatal(err)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(e); err != nil {
			fatal(err)
		}
	} else {
		printExplanation(e)
	}
	if !e.Consistent() {
		os.Exit(1)
	}
}

func printExplanation(e *serve.Explanation) {
	r := e.Record
	fmt.Printf("verdict %s  (worker %s, episode %d, sample %d)\n",
		r.Trace, r.Worker, r.Episode, r.Sample)
	fmt.Printf("  mode %s  score %+.6f  flagged=%v  version %s\n",
		r.Mode, r.Score, r.Flagged, r.Version)
	if r.LatencyMs > 0 {
		fmt.Printf("  latency %.3fms (score %.3fms)\n", r.LatencyMs, r.ScoreMs)
	}
	fmt.Printf("\nreconstructed from %d fired features (checkpoint %s):\n",
		len(r.Fired), e.Version)
	fmt.Printf("  score %+.6f  (recorded %+.6f, match=%v)\n", e.Score, r.Score, e.ScoreMatch)
	for i, c := range e.Attr {
		fmt.Printf("  %2d. %-44s weight %+8.4f  share %+6.1f%%\n",
			i+1, c.Feature, c.Weight, c.Share*100)
	}
	if e.Consistent() {
		fmt.Println("\nconsistent: reconstruction matches the recorded verdict bit-for-bit")
		return
	}
	fmt.Println("\nDIVERGED from the recorded verdict:")
	for _, d := range e.Diffs {
		fmt.Printf("  - %s\n", d)
	}
}

func cmdList() {
	fmt.Println("attacks:")
	for _, a := range perspectron.AttackWorkloads() {
		i := a.Info()
		fmt.Printf("  %-20s category=%s channel=%s\n", i.Name, i.Category, i.Channel)
	}
	fmt.Println("benign:")
	for _, b := range perspectron.BenignWorkloads() {
		fmt.Printf("  %s\n", b.Info().Name)
	}
}
