package experiments

import (
	"fmt"
	"strings"

	"perspectron/internal/branch"
	"perspectron/internal/cache"
	"perspectron/internal/dram"
	"perspectron/internal/pipeline"
	"perspectron/internal/sim"
)

// Table2Result lists the simulated architecture parameters (Table II).
// Every row the model reads is rendered from the constant or cache preset
// the simulator uses; the few paper parameters the model does not read are
// literals, each marked with the reason below.
type Table2Result struct {
	Rows [][2]string
}

// Table2 reads the machine's parameters.
func Table2() *Table2Result {
	r := &Table2Result{}
	add := func(k, v string) { r.Rows = append(r.Rows, [2]string{k, v}) }
	add("Architecture", fmt.Sprintf("X86-like O3 CPU, 1 core, single thread at %.1f GHz", sim.ClockGHz))
	add("Branch predictor", "Tournament (local + global + choice)")
	add("RAS entries", fmt.Sprint(branch.RASEntries))
	add("BTB entries", fmt.Sprint(branch.BTBEntries))
	add("LQ entries", fmt.Sprint(pipeline.LQEntries))
	add("SQ entries", fmt.Sprint(pipeline.SQEntries))
	add("ROB entries", fmt.Sprint(pipeline.ROBEntries))
	add("Fetch/dispatch/issue/commit width", fmt.Sprint(pipeline.Width))
	add("Physical int registers", fmt.Sprint(pipeline.NumPhysIntRegs))
	// Literal: the pipeline models no float register file.
	add("Physical float registers", "256")
	add("L1 I-cache", cacheGeometry(cache.L1IConfig()))
	add("L1 D-cache", cacheGeometry(cache.L1DConfig()))
	l2 := cache.L2Config()
	// Literal tail: the caches model no per-MSHR targets or write buffers.
	add("Shared L2", fmt.Sprintf("%s, mshrs=%d, tgtsPerMshr=12, writeBuffers=8", cacheGeometry(l2), l2.MSHRs))
	add("L2 tag/data/response latency", fmt.Sprintf("%d cycles", l2.Latency))
	add("DRAM", fmt.Sprintf("%d banks, %d B rows, read queue %d, write queue %d",
		dram.Banks, dram.RowBytes, dram.ReadQDepth, dram.WriteQDepth))
	add("Microarchitectural counters", fmt.Sprint(sim.NewMachine().NumCounters()))
	return r
}

// cacheGeometry renders a cache's size, line and associativity as Table II
// does, e.g. "32KB, 64B line, 4-way".
func cacheGeometry(c cache.Config) string {
	size := fmt.Sprintf("%dKB", c.SizeBytes>>10)
	if c.SizeBytes >= 1<<20 {
		size = fmt.Sprintf("%dMB", c.SizeBytes>>20)
	}
	return fmt.Sprintf("%s, %dB line, %d-way", size, c.LineBytes, c.Ways)
}

// Render formats the configuration table.
func (r *Table2Result) Render() string {
	var b strings.Builder
	b.WriteString("Table II — parameters of the simulated architecture\n\n")
	var rows [][]string
	for _, kv := range r.Rows {
		rows = append(rows, []string{kv[0], kv[1]})
	}
	b.WriteString(table([]string{"parameter", "value"}, rows))
	return b.String()
}
