package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setups is how many times a run sets up; setup_s is their median.
const setups = 3

// runOptions are one run's settings.
type runOptions struct {
	seed     int64
	seconds  float64
	tiny     bool
	traceOut string
}

// runner spawns the child processes of one run and collects their spans.
type runner struct {
	ctx   context.Context
	opts  runOptions
	exe   string
	tmp   string
	n     int
	spans []span
}

func newRunner(ctx context.Context, opts runOptions) (*runner, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		return nil, err
	}
	return &runner{ctx: ctx, opts: opts, exe: exe, tmp: tmp}, nil
}

// close removes the run's temp dir.
func (r *runner) close() { os.RemoveAll(r.tmp) }

// child runs one child process to completion and reads its result. The
// child's own output goes to standard error, so the result JSON stays the
// last line of standard output.
func (r *runner) child(a childArgs) (*childResult, error) {
	r.n++
	proc := fmt.Sprintf("%02d-%s", r.n, a.role)
	a.dir = filepath.Join(r.tmp, proc)
	if err := os.Mkdir(a.dir, 0o755); err != nil {
		return nil, err
	}
	a.seed, a.tiny = r.opts.seed, r.opts.tiny
	cmd := exec.CommandContext(r.ctx, r.exe, a.argv()...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	// A child must not outlive a killed parent.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child %s: %w", proc, err)
	}
	b, err := os.ReadFile(filepath.Join(a.dir, "result.json"))
	if err != nil {
		return nil, err
	}
	res := childResult{dir: a.dir}
	if err := json.Unmarshal(b, &res); err != nil {
		return nil, fmt.Errorf("child %s result: %w", proc, err)
	}
	base := len(r.spans)
	for _, s := range res.Spans {
		s.ID += base
		if s.Parent != 0 {
			s.Parent += base
		}
		s.Proc = proc
		r.spans = append(r.spans, s)
	}
	return &res, nil
}

// setupOutcome is the run's setup: its artifacts, timings and checks.
type setupOutcome struct {
	art        string // dir of the first setup's models and samples
	seconds    []float64
	layer      map[string]float64 // per-layer medians over the setups
	gomaxprocs int
	failures   []string
}

// setup runs the setup `setups` times, each in a fresh process, keeps the
// first one's artifacts, and checks that every setup produced the same
// models and samples.
func (r *runner) setup(traced bool) (*setupOutcome, error) {
	st := &setupOutcome{layer: map[string]float64{}}
	var got []*childResult
	for i := 0; i < setups; i++ {
		res, err := r.child(childArgs{role: roleSetup, trace: traced})
		if err != nil {
			return nil, err
		}
		if i == 0 {
			st.art, st.gomaxprocs = res.dir, res.GOMAXPROCS
		}
		st.seconds = append(st.seconds, res.Seconds)
		got = append(got, res)
	}
	for k := range got[0].Layer {
		var xs []float64
		for _, g := range got {
			xs = append(xs, g.Layer[k])
		}
		st.layer[k] = median(xs)
	}
	for i := 1; i < len(got); i++ {
		st.failures = append(st.failures, compareDigests("setup", got[0], got[i])...)
	}
	return st, nil
}

// outcome is one workload's measured metrics and check results.
type outcome struct {
	name      string
	env       env
	metrics   map[string]float64
	attempted int
	failed    int
	samples   int // latency samples behind the percentiles
	failures  []string
}

// minReps is how many untraced reps a workload runs at least, and the
// budget serve-sim's and score-replay's time-boxed reps measure for; a
// train rep is one training and an experiments-quick rep one pass. A run
// has two reps so their outputs can be compared — except experiments-quick,
// whose one pass already outlasts the run — and more follow only while
// another fits in the run's seconds.
func minReps(name string, seconds float64) (int, time.Duration) {
	if name == wExperiments {
		return 1, 0
	}
	return 2, time.Duration(seconds * float64(time.Second) / 2)
}

// workload runs name's untraced reps, checks their outputs against each
// other, and folds them into the metrics. With traced set it then runs one
// traced rep, checked against the first, and the probe, which complete the
// per-layer metrics.
func (r *runner) workload(name string, st *setupOutcome, traced bool) (*outcome, error) {
	o := &outcome{name: name, env: stamp(st.gomaxprocs), metrics: map[string]float64{},
		failures: append([]string(nil), st.failures...)}
	reps, budget := minReps(name, r.opts.seconds)
	var got []*childResult
	start := time.Now()
	for len(got) < reps || time.Since(start).Seconds()+got[len(got)-1].Seconds <= r.opts.seconds {
		res, err := r.child(childArgs{role: name, art: st.art, budget: budget})
		if err != nil {
			return nil, err
		}
		got = append(got, res)
	}

	var secs, cpu, gc, alloc float64
	var rates, lat, rss []float64
	for _, g := range got {
		secs += g.Seconds
		cpu += g.CPUSeconds
		gc += float64(g.GCCycles)
		alloc += g.AllocMB
		rss = append(rss, g.MaxRSSMB)
		rates = append(rates, g.Rates...)
		lat = append(lat, g.LatencyMs...)
		o.attempted += g.Attempted
		o.failed += g.Failed
	}
	if len(rates) == 0 || len(lat) == 0 {
		return nil, fmt.Errorf("%s completed no operations", name)
	}
	o.samples = len(lat)
	m := o.metrics
	m["setup_s"] = median(st.seconds)
	m["throughput_per_s"] = median(rates)
	m["latency_p50_ms"] = quantile(lat, 0.50)
	m["latency_p99_ms"] = quantile(lat, 0.99)
	m["peak_rss_mb"] = median(rss)
	m["bench.cpu_util"] = cpu / (secs * float64(st.gomaxprocs))
	m["gc_cycles"] = gc / float64(len(got))
	m["alloc_mb"] = alloc / float64(len(got))
	m["failed_frac"] = float64(o.failed) / float64(o.attempted)

	for i := 1; i < len(got); i++ {
		o.failures = append(o.failures, compareDigests(name, got[0], got[i])...)
	}
	if !traced {
		return o, nil
	}

	tr, err := r.child(childArgs{role: name, art: st.art, budget: budget, trace: true})
	if err != nil {
		return nil, err
	}
	o.failures = append(o.failures, compareDigests(name, got[0], tr)...)
	probe, err := r.child(childArgs{role: roleProbe, art: st.art, serve: name != wServe})
	if err != nil {
		return nil, err
	}
	m["bench.trace_overhead_frac"] = m["throughput_per_s"]/median(tr.Rates) - 1
	m["bench.span_coverage_frac"] = rootChildrenCoverage(tr.Spans)
	for k, v := range st.layer {
		m[k] = v
	}
	for k, v := range probe.Layer {
		if strings.HasPrefix(k, "sim.") || strings.HasPrefix(k, "score.") {
			m[k] = v
		}
	}
	serveSrc := probe
	if name == wServe {
		serveSrc = tr
	}
	foldServeLayer(m, serveSrc, st.gomaxprocs)
	return o, nil
}

// foldServeLayer derives the serve.* per-layer metrics from one serve
// rep: stage percentiles from its verdict records, its counters, and its
// simulator efficiency against the sim probe already in m.
func foldServeLayer(m map[string]float64, src *childResult, gomaxprocs int) {
	for _, stage := range []string{"queue", "batch", "score", "log"} {
		m["serve."+stage+"_ms_p50"] = quantile(src.Stages[stage], 0.50)
		m["serve."+stage+"_ms_p99"] = quantile(src.Stages[stage], 0.99)
	}
	for k, v := range src.Layer {
		if strings.HasPrefix(k, "serve.") {
			m[k] = v
		}
	}
	// Harmonic mean: the rate at which the four streams' instructions go
	// through one core when each stream gets an equal share of them.
	var inv float64
	n := 0
	for _, w := range serveStreams() {
		inv += 1 / m["sim.insts_per_s."+metricSafe(w.Info().Name)]
		n++
	}
	m["serve.sim_efficiency"] = src.SimInstsPerS / (float64(gomaxprocs) * float64(n) / inv)
}

// compareDigests reports every output two reps of name both produced but
// fingerprinted differently, and — for serve — every verdict of an
// episode both reps completed that only one of them logged.
func compareDigests(name string, a, b *childResult) []string {
	var out []string
	for _, pair := range [][2]*childResult{{a, b}, {b, a}} {
		x, y := pair[0], pair[1]
		for k, vx := range x.Digest {
			vy, ok := y.Digest[k]
			switch {
			case ok && vx != vy:
				if x == a {
					out = append(out, fmt.Sprintf("%s: %s differs across reps (%s vs %s)", name, k, vx, vy))
				}
			case !ok && name == wServe && episodeCompleted(y, k):
				out = append(out, fmt.Sprintf("%s: verdict %s missing from a rep that completed its episode", name, k))
			}
		}
	}
	return out
}

// episodeCompleted reports whether the serve rep res completed the episode
// of verdict key "worker/episode/sample".
func episodeCompleted(res *childResult, key string) bool {
	parts := strings.Split(key, "/")
	if len(parts) != 3 {
		return false
	}
	ep, err := strconv.Atoi(parts[1])
	return err == nil && ep < res.Completed[parts[0]]
}
