// Command tracegen collects labelled microarchitectural counter traces from
// the simulated machine and writes them as CSV — the equivalent of the
// paper's gem5 statistics dumps.
//
// Usage:
//
//	tracegen [-out traces.csv] [-insts 300000] [-interval 10000]
//	         [-runs 2] [-seed 1] [-workloads all|attacks|benign] [-cachedir DIR]
//	tracegen -stats <workload> [-insts 300000] [-interval 10000] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"perspectron"
	"perspectron/internal/corpus"
	"perspectron/internal/sim"
	"perspectron/internal/telemetry/telemetrycli"
	"perspectron/internal/trace"
	"perspectron/internal/workload"
	"perspectron/internal/workload/attacks"
	"perspectron/internal/workload/benign"
)

func main() {
	out := flag.String("out", "traces.csv", "output CSV path (- for stdout)")
	insts := flag.Uint64("insts", 300_000, "committed instructions per program run")
	interval := flag.Uint64("interval", 10_000, "sampling granularity in instructions")
	runs := flag.Int("runs", 2, "independent runs per program")
	seed := flag.Int64("seed", 1, "global random seed")
	which := flag.String("workloads", "all", "workload set: all, attacks, benign")
	statsFor := flag.String("stats", "", "instead of CSV traces, run this one workload and dump a gem5-style stats.txt to stdout")
	cacheDir := flag.String("cachedir", "", "on-disk corpus cache directory shared with the other tools")
	tel := telemetrycli.Register(flag.CommandLine)
	flag.Parse()
	stop, err := tel.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stop()

	if *cacheDir != "" {
		if err := corpus.Default().SetCacheDir(*cacheDir); err != nil {
			fmt.Fprintf(os.Stderr, "cachedir: %v\n", err)
			os.Exit(1)
		}
	}

	if *statsFor != "" {
		dumpStats(*statsFor, *insts, *interval, *seed)
		return
	}

	var progs []workload.Program
	switch *which {
	case "attacks":
		progs = attacks.TrainingSet()
	case "benign":
		progs = benign.All()
	case "all":
		progs = append(progs, benign.All()...)
		progs = append(progs, attacks.TrainingSet()...)
		for _, cat := range []string{"spectre_v1", "spectre_v2", "spectre_rsb", "meltdown", "cacheout"} {
			progs = append(progs, attacks.WithChannel(cat, "pp"))
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown workload set %q\n", *which)
		os.Exit(2)
	}

	ds := corpus.Default().Dataset(progs, trace.CollectConfig{
		MaxInsts: *insts,
		Interval: *interval,
		Seed:     *seed,
		Runs:     *runs,
	})
	fmt.Fprintln(os.Stderr, ds.Summary())

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if err := ds.WriteCSV(w); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *out != "-" {
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	}
}

// dumpStats runs one named workload (a corpus name such as spectreV1-fr, or
// an attack's short name on the fr channel) on a fresh machine and prints
// the full counter state in gem5 stats.txt format.
func dumpStats(name string, insts, interval uint64, seed int64) {
	var prog workload.Program
	for _, p := range append(append([]workload.Program{}, benign.All()...), attacks.TrainingSet()...) {
		if p.Info().Name == name {
			prog = p
		}
	}
	if prog == nil {
		prog = perspectron.AttackByName(name, "fr") // the short names `perspectron detect` takes
	}
	if prog == nil {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", name)
		os.Exit(2)
	}
	m := sim.NewMachine(sim.DefaultConfig())
	m.RunStream(prog.Stream(rand.New(rand.NewSource(seed))), insts, interval, func(int, []float64) bool { return true })
	if err := m.Reg.Dump(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
