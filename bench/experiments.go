package main

import (
	"fmt"
	"time"

	"perspectron/internal/corpus"
	"perspectron/internal/experiments"
)

type renderer interface{ Render() string }

// experimentList is cmd/experiments' registry in its canonical order.
var experimentList = []struct {
	name string
	fn   func(experiments.Config) renderer
}{
	{"table2", func(experiments.Config) renderer { return experiments.Table2() }},
	{"fig1", func(c experiments.Config) renderer { return experiments.Fig1(c) }},
	{"table1", func(c experiments.Config) renderer { return experiments.Table1(c) }},
	{"table3", func(c experiments.Config) renderer { return experiments.Table3(c) }},
	{"fig5", func(c experiments.Config) renderer { return experiments.Fig5(c) }},
	{"table4", func(c experiments.Config) renderer { return experiments.Table4(c) }},
	{"fig3", func(c experiments.Config) renderer { return experiments.Fig3(c) }},
	{"fig4", func(c experiments.Config) renderer { return experiments.Fig4(c) }},
	{"timing", func(experiments.Config) renderer { return experiments.Timing() }},
	{"weights", func(c experiments.Config) renderer { return experiments.Weights(c) }},
	{"multiway", func(c experiments.Config) renderer { return experiments.Multiway(c) }},
	{"mitigate", func(c experiments.Config) renderer { return experiments.Mitigate(c) }},
	{"rhmd", func(c experiments.Config) renderer { return experiments.RHMD(c) }},
	{"zeroday", func(c experiments.Config) renderer { return experiments.ZeroDay(c) }},
	{"sched", func(c experiments.Config) renderer { return experiments.Sched(c) }},
	{"faulttol", func(c experiments.Config) renderer { return experiments.FaultTol(c) }},
}

// runExperimentsRep runs one pass of the experiments, as
// `experiments -quick -run all` does, with no disk cache. An operation is
// one experiment; it fails if it renders nothing or if a collection run it
// triggered was dropped.
func runExperimentsRep(a childArgs, sc scale, tr *tracer, res *childResult) error {
	cfg := sc.exp
	cfg.Seed = a.seed
	want := map[string]bool{}
	for _, n := range sc.expNames {
		want[n] = true
	}
	res.Digest = map[string]string{}
	store := corpus.Default()
	root := tr.begin("experiments", 0)
	cpu0 := cpuSeconds()
	start := time.Now()
	for _, e := range experimentList {
		if !want[e.name] {
			continue
		}
		before := store.Stats()
		id := tr.begin("experiments."+e.name, root)
		t := time.Now()
		out := e.fn(cfg).Render()
		res.Layer["experiments."+e.name+"_s"] = time.Since(t).Seconds()
		tr.end(id)
		res.Attempted++
		if out == "" || store.Stats().Sub(before).RunsDropped > 0 {
			res.Failed++
		}
		fp := newFingerprint()
		fp.add(out)
		res.Digest[e.name] = fp.sum()
	}
	res.Seconds = time.Since(start).Seconds()
	res.CPUSeconds = cpuSeconds() - cpu0
	tr.end(root)
	res.LatencyMs = []float64{res.Seconds * 1e3}
	res.Rates = []float64{1 / res.Seconds}
	if res.Attempted == 0 {
		return fmt.Errorf("no experiments selected")
	}
	return nil
}
