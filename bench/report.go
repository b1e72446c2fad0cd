package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// env stamps every result with the host it was measured on.
type env struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"git_revision"`
	CPUModel   string `json:"cpu_model"`
}

func stamp(gomaxprocs int) env {
	e := env{NumCPU: runtime.NumCPU(), GOMAXPROCS: gomaxprocs, GoVersion: runtime.Version(),
		Revision: "unknown", CPUModel: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Revision = s.Value
			}
		}
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}

// result is the JSON object a -workload run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result selects the declared metrics from o. Every declared metric must
// have been measured and be finite.
func (o *outcome) result(defs []metricDef) (result, error) {
	res := result{Correct: len(o.failures) == 0, Attempted: o.attempted, Failed: o.failed,
		Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := o.metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("%s: metric %s was not measured", o.name, d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return res, nil
}

// printTable prints the environment stamp, every declared metric with its
// unit, direction and bound, and every failed check.
func printTable(w io.Writer, name string, o *outcome, defs []metricDef) {
	e := o.env
	fmt.Fprintf(w, "== %s  (nproc %d, GOMAXPROCS %d, %s, rev %s, %s)\n",
		name, e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.Revision, e.CPUModel)
	fmt.Fprintf(w, "   attempted %d, failed %d, %d latency samples\n", o.attempted, o.failed, o.samples)
	for _, d := range defs {
		bound := "-"
		if d.Bound != nil {
			bound = fmt.Sprintf("%.0f%%", *d.Bound*100)
		}
		fmt.Fprintf(w, "   %-36s %14.6g %-8s %-7s %s\n", d.Name, o.metrics[d.Name], d.Unit, d.Better, bound)
	}
	for _, f := range o.failures {
		fmt.Fprintln(w, "   CHECK FAILED:", f)
	}
}

// writeTrace writes the run's spans, with each span name's total and self
// time, to the trace file.
func (r *runner) writeTrace(label string) error {
	doc := struct {
		Workload string     `json:"workload"`
		Seed     int64      `json:"seed"`
		Env      env        `json:"env"`
		SelfTime []selfTime `json:"self_time"`
		Spans    []span     `json:"spans"`
	}{label, r.opts.seed, stamp(runtime.NumCPU()), selfTimes(r.spans), r.spans}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(r.opts.traceOut), 0o755); err != nil {
		return err
	}
	return os.WriteFile(r.opts.traceOut, b, 0o644)
}

// fingerprint is a running SHA-256 over lines.
type fingerprint struct{ h hash.Hash }

func newFingerprint() fingerprint { return fingerprint{sha256.New()} }

func (f fingerprint) add(line string) {
	io.WriteString(f.h, line)
	f.h.Write([]byte{'\n'})
}

func (f fingerprint) sum() string { return hex.EncodeToString(f.h.Sum(nil)) }
