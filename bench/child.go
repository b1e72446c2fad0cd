package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"perspectron/internal/corpus"
	"perspectron/internal/telemetry"
)

// Child roles. The parent re-executes its own binary once per setup, per
// rep and per probe, so every measurement starts from a cold process:
// corpus.Default() memoizes datasets and selections, and a second rep in the
// same process would measure cache hits.
const (
	roleSetup = "setup"
	roleProbe = "probe"
)

// childArgs is what the parent passes to a child on its command line.
type childArgs struct {
	role   string
	seed   int64
	budget time.Duration // how long the rep measures
	dir    string        // the child's own scratch dir; result.json goes here
	art    string        // the setup dir holding the models and replay samples
	trace  bool
	serve  bool // probe only: also run a short serve rep for the serve.* metrics
	tiny   bool
}

// argv renders a as the child's command line.
func (a childArgs) argv() []string {
	out := []string{"-child", a.role,
		"-seed", fmt.Sprint(a.seed),
		"-budget", a.budget.String(),
		"-dir", a.dir,
	}
	if a.art != "" {
		out = append(out, "-art", a.art)
	}
	if a.trace {
		out = append(out, "-trace-rep")
	}
	if a.serve {
		out = append(out, "-serve-probe")
	}
	if a.tiny {
		out = append(out, "-tiny")
	}
	return out
}

// childResult is what a child reports back through <dir>/result.json. Each
// role fills the fields it measures.
type childResult struct {
	GOMAXPROCS int     `json:"gomaxprocs"`
	MaxRSSMB   float64 `json:"max_rss_mb"`
	GCCycles   uint32  `json:"gc_cycles"`
	AllocMB    float64 `json:"alloc_mb"`

	// Seconds is the measured wall time of the rep (for setup, of one whole
	// setup); CPUSeconds the process CPU time spent over the same span.
	Seconds    float64 `json:"seconds"`
	CPUSeconds float64 `json:"cpu_seconds"`
	// Attempted and Failed are the workload's failure accounting.
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// Rates holds throughput samples in units of work per second: serve's
	// verdicts per rateWindow, replay's verdicts per batch, one training,
	// one pass. LatencyMs holds one entry per timed unit: a verdict's
	// enqueue-to-log latency, a replayed verdict's cost, one training, one
	// pass.
	Rates     []float64 `json:"rates,omitempty"`
	LatencyMs []float64 `json:"latency_ms,omitempty"`

	// Layer holds per-layer numbers (names as in BENCHMARK.json).
	Layer map[string]float64 `json:"layer,omitempty"`
	// Stages holds raw per-verdict stage samples (serve) for pooling.
	Stages map[string][]float64 `json:"stages,omitempty"`
	// Digest maps an output's identity to a fingerprint of its content, for
	// comparing the same output across reps.
	Digest map[string]string `json:"digest,omitempty"`
	// Completed is serve's completed episode count per stream, and
	// SimInstsPerS its simulated instructions per second of host time.
	Completed    map[string]int `json:"completed,omitempty"`
	SimInstsPerS float64        `json:"sim_insts_per_s,omitempty"`

	Spans []span `json:"spans,omitempty"`

	dir string // set by the parent: the child's dir
}

// childMain runs one child role and writes its result file.
func childMain(a childArgs) error {
	runtime.GOMAXPROCS(runtime.NumCPU())
	corpus.Default().SetRegistry(telemetry.Enable())
	var tr *tracer
	if a.trace {
		tr = &tracer{}
	}
	sc := scaleFor(a.tiny)
	res := &childResult{GOMAXPROCS: runtime.GOMAXPROCS(0), Layer: map[string]float64{}}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	ctx := context.Background()
	var err error
	switch a.role {
	case roleSetup:
		err = runSetup(ctx, a, sc, tr, res)
	case roleProbe:
		err = runProbe(ctx, a, sc, res)
	case wServe:
		err = serveRep(ctx, a.art, a.dir, a.seed, a.budget, sc, tr, res)
	case wExperiments:
		err = runExperimentsRep(a, sc, tr, res)
	case wTrain:
		err = runTrainRep(ctx, a, sc, tr, res)
	case wReplay:
		err = runReplayRep(a, tr, res)
	default:
		err = fmt.Errorf("unknown child role %q", a.role)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", a.role, err)
	}

	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	res.GCCycles = ms1.NumGC - ms0.NumGC
	res.AllocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	res.MaxRSSMB = maxRSSMB()
	res.Spans = tr.recorded()
	b, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	return os.WriteFile(filepath.Join(a.dir, "result.json"), b, 0o644)
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// maxRSSMB is the process's peak resident set size (ru_maxrss, KiB on
// Linux) in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// cpuUtil is CPU seconds over wall seconds × GOMAXPROCS.
func cpuUtil(cpu, wall float64) float64 {
	if wall <= 0 {
		return 0
	}
	return cpu / (wall * float64(runtime.GOMAXPROCS(0)))
}
