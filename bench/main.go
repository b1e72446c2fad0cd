// Command bench is the repository benchmark. It measures four workloads end
// to end — serve-sim, experiments-quick, train and score-replay — checks
// their outputs, and, in a traced run, breaks each into per-layer numbers.
// BENCHMARK.json at the repository root declares the workloads and every
// metric with its unit and regression bound; README.md explains them.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash bench/run.sh                                   # every workload, untraced reps + traced rep
//	bash bench/run.sh -workload train -seed 2 -seconds 10 -trace 0
//	bash bench/run.sh -repeat-check -runs 10            # run-to-run spread against each bound
//
// With -workload the last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics: the end-to-end metrics
// with -trace 0, the per-layer metrics with -trace 1. Every measurement
// runs in a fresh child process (the binary re-executes itself with
// -child), because corpus.Default() memoizes datasets and selections.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// runDeadline bounds one -workload run, so a hung child cannot hold the
// benchmark past its time limit.
const runDeadline = 170 * time.Second

func main() {
	var (
		workload    = flag.String("workload", "", "run one workload and print its result JSON (default: every workload)")
		seed        = flag.Int64("seed", 1, "seed the workloads' inputs derive from")
		seconds     = flag.Float64("seconds", 10, "how long each workload measures")
		traceFlag   = flag.Int("trace", 0, "with -workload: 1 runs the traced rep and reports per-layer metrics")
		repeatCheck = flag.Bool("repeat-check", false, "run two sets of -runs untraced runs per workload and print each end-to-end metric's spread against its bound")
		runs        = flag.Int("runs", 10, "runs per set for -repeat-check")
		traceOut    = flag.String("trace-out", filepath.Join(".bench_build", "trace.json"), "where a traced run writes its spans")
		tiny        = flag.Bool("tiny", false, "tiny inputs, for the smoke test")

		childRole  = flag.String("child", "", "internal: run one child role")
		childDir   = flag.String("dir", "", "internal: the child's scratch dir")
		childArt   = flag.String("art", "", "internal: the setup dir")
		budget     = flag.Duration("budget", 0, "internal: the child's measuring budget")
		traceRep   = flag.Bool("trace-rep", false, "internal: record spans")
		serveProbe = flag.Bool("serve-probe", false, "internal: the probe also runs serve")
	)
	flag.Parse()

	if *childRole != "" {
		err := childMain(childArgs{role: *childRole, seed: *seed, budget: *budget, dir: *childDir,
			art: *childArt, trace: *traceRep, serve: *serveProbe, tiny: *tiny})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			os.Exit(1)
		}
		return
	}

	cat, err := loadCatalogue("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	opts := runOptions{seed: *seed, seconds: *seconds, tiny: *tiny, traceOut: *traceOut}
	switch {
	case *repeatCheck:
		err = repeatCheckMain(cat, opts, *workload, *runs)
	case *workload != "":
		err = workloadMain(cat, opts, *workload, *traceFlag == 1)
	default:
		err = allMain(cat, opts)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// workloadMain is one run of one workload: set up, measure, check, and
// print the result JSON as the last line of standard output. A failed
// output check still prints the result, with correct=false, and then
// fails the run.
func workloadMain(cat *catalogue, opts runOptions, name string, traced bool) error {
	if !cat.hasWorkload(name) {
		return fmt.Errorf("workload %q is not declared in BENCHMARK.json", name)
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	r, err := newRunner(ctx, opts)
	if err != nil {
		return err
	}
	defer r.close()
	st, err := r.setup(traced)
	if err != nil {
		return err
	}
	o, err := r.workload(name, st, traced)
	if err != nil {
		return err
	}
	defs := cat.EndToEnd
	if traced {
		defs = cat.PerLayer
		if err := r.writeTrace(name); err != nil {
			return err
		}
	}
	res, err := o.result(defs)
	if err != nil {
		return err
	}
	printTable(os.Stdout, name, o, defs)
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !res.Correct {
		return fmt.Errorf("output checks failed: %v", o.failures)
	}
	return nil
}

// allMain sets up once, then runs every declared workload's untraced reps
// and traced rep, printing every metric and one JSON summary line.
func allMain(cat *catalogue, opts runOptions) error {
	r, err := newRunner(context.Background(), opts)
	if err != nil {
		return err
	}
	defer r.close()
	st, err := r.setup(true)
	if err != nil {
		return err
	}
	summary := struct {
		Correct   bool                `json:"correct"`
		Attempted int                 `json:"attempted"`
		Failed    int                 `json:"failed"`
		Workloads map[string][]result `json:"workloads"`
	}{Correct: true, Workloads: map[string][]result{}}
	for _, w := range cat.Workloads {
		o, err := r.workload(w.Name, st, true)
		if err != nil {
			return err
		}
		for _, defs := range [][]metricDef{cat.EndToEnd, cat.PerLayer} {
			res, err := o.result(defs)
			if err != nil {
				return err
			}
			printTable(os.Stdout, w.Name, o, defs)
			summary.Workloads[w.Name] = append(summary.Workloads[w.Name], res)
		}
		summary.Correct = summary.Correct && len(o.failures) == 0
		summary.Attempted += o.attempted
		summary.Failed += o.failed
	}
	if err := r.writeTrace("all"); err != nil {
		return err
	}
	b, err := json.Marshal(summary)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !summary.Correct {
		return fmt.Errorf("output checks failed")
	}
	return nil
}
