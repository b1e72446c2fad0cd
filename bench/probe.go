package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"perspectron/internal/sim"
)

// probeRepeats is how many times the sim probe runs each stream; it
// reports the median.
const probeRepeats = 5

// runProbe measures the layers in isolation, the same way whatever the
// workload: the simulator, the scoring layer, and — unless the traced rep
// was serve-sim itself — a short serve run for the serve.* metrics.
func runProbe(ctx context.Context, a childArgs, sc scale, res *childResult) error {
	if err := simProbe(a.seed, sc.streamInsts, res.Layer); err != nil {
		return err
	}
	if err := scoreProbe(a.art, res.Layer); err != nil {
		return err
	}
	if !a.serve {
		return nil
	}
	return serveRep(ctx, a.art, a.dir, a.seed, sc.serveProbe, sc, nil, res)
}

// simProbe runs each serve stream for insts instructions on a fresh
// machine, single-threaded, and reports simulated instructions per host
// second per stream, the cost of building a machine, and the allocation
// cost per thousand simulated instructions.
func simProbe(seed int64, insts uint64, layer map[string]float64) error {
	const interval = 10_000
	const machines = 20
	var ns []float64
	for i := 0; i < machines; i++ {
		t := time.Now()
		sim.NewMachine(sim.DefaultConfig())
		ns = append(ns, float64(time.Since(t).Microseconds()))
	}
	layer["sim.new_machine_us"] = median(ns)

	var m0, m1 runtime.MemStats
	var kinst float64
	runtime.ReadMemStats(&m0)
	for _, w := range serveStreams() {
		var rates []float64
		for r := 0; r < probeRepeats; r++ {
			m := sim.NewMachine(sim.DefaultConfig())
			stream := w.Stream(rand.New(rand.NewSource(seed)))
			t := time.Now()
			n := m.RunStream(stream, insts, interval, func(int, []float64) bool { return true })
			el := time.Since(t).Seconds()
			if n == 0 {
				return fmt.Errorf("sim probe: %s produced no samples", w.Info().Name)
			}
			done := float64(min(uint64(n)*interval, insts))
			rates = append(rates, done/el)
			kinst += done / 1e3
		}
		layer["sim.insts_per_s."+metricSafe(w.Info().Name)] = median(rates)
	}
	runtime.ReadMemStats(&m1)
	layer["sim.allocs_per_kinst"] = float64(m1.Mallocs-m0.Mallocs) / kinst
	layer["sim.bytes_per_kinst"] = float64(m1.TotalAlloc-m0.TotalAlloc) / kinst
	return nil
}

// metricSafe maps a workload name onto the metric-name alphabet.
func metricSafe(name string) string {
	return strings.NewReplacer("+", "-").Replace(name)
}
