// Command benchjson converts `go test -bench` text output into a JSON
// report, so benchmark runs (e.g. `make bench`) leave a machine-readable
// artifact next to the console log.
//
// Usage:
//
//	go test -bench . -benchmem | benchjson -out BENCH.json
//	benchjson -in bench.out -out BENCH.json -min-iters 5
//	benchjson -in bench.out -out /dev/null -require-faster 'BenchmarkSelect/parallel-packed<BenchmarkSelect/serial-dense'
//	benchjson -in bench.out -out /dev/null -require-faster 'BenchmarkServeForensicsOverhead/verdict<4*BenchmarkServeForensicsOverhead/score'
//
// Each benchmark result line
//
//	BenchmarkName-8   100   123 ns/op   45 B/op   6 allocs/op   0.99 accuracy
//
// becomes one entry with the iteration count and every unit-tagged metric.
//
// Guardrails: single-iteration entries are pure noise, so benchjson always
// warns about them and refuses them outright under -min-iters. The
// -require-faster flag (repeatable via comma separation) turns the report
// into a trajectory gate: 'A<B' fails the run unless benchmark A's ns/op is
// strictly below B's; that is how `make bench-select` gates CI. 'A<F*B'
// scales B by the factor F first, so 'A<4*B' bounds A's cost to under four
// times B's; that is how `make bench-verdict` gates CI.
//
// Every report it writes is stamped with the environment the numbers came
// from: the host's CPU count, GOMAXPROCS, the Go version and the git
// revision of the working tree (suffixed "-dirty" when it has uncommitted
// changes to tracked files).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name       string             `json:"name"`
	Procs      int                `json:"procs,omitempty"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report is the emitted JSON document.
type Report struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	Pkg        string   `json:"pkg,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	NumCPU     int      `json:"nproc,omitempty"`
	GOMAXPROCS int      `json:"gomaxprocs,omitempty"`
	GoVersion  string   `json:"go_version,omitempty"`
	Revision   string   `json:"git_revision,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	in := flag.String("in", "-", "benchmark text input file (- for stdin)")
	out := flag.String("out", "-", "JSON output file (- for stdout)")
	minIters := flag.Int64("min-iters", 0, "fail if any benchmark ran fewer iterations (0: warn on 1-iteration entries only)")
	faster := flag.String("require-faster", "", "comma-separated 'A<B' or 'A<F*B' pairs; fail unless ns/op of A is strictly below B's (times the factor F)")
	flag.Parse()

	var r io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	rep, err := parse(r)
	if err != nil {
		fatal(err)
	}

	if err := checkIterations(rep, *minIters); err != nil {
		fatal(err)
	}
	if err := checkFaster(rep, *faster); err != nil {
		fatal(err)
	}
	stampEnv(rep)

	var w io.Writer = os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fatal(err)
	}
	if *out != "-" {
		fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(rep.Benchmarks), *out)
	}
}

// checkIterations enforces the minimum iteration count. Single-iteration
// entries are always flagged — one sample has no variance estimate — but
// only fail the run when -min-iters demands more.
func checkIterations(rep *Report, min int64) error {
	for _, b := range rep.Benchmarks {
		if min > 0 && b.Iterations < min {
			return fmt.Errorf("%s ran %d iterations, need >= %d (raise -benchtime)", b.Name, b.Iterations, min)
		}
		if b.Iterations == 1 {
			fmt.Fprintf(os.Stderr, "benchjson: warning: %s ran a single iteration — its numbers are noise\n", b.Name)
		}
	}
	return nil
}

// checkFaster enforces 'A<B' ns/op orderings, e.g. the parallel-packed vs
// serial-dense selection guard, and 'A<F*B' cost bounds, e.g. a verdict
// costing under four bare scores.
func checkFaster(rep *Report, spec string) error {
	if spec == "" {
		return nil
	}
	nsop := func(name string) (float64, error) {
		for _, b := range rep.Benchmarks {
			if b.Name == name {
				v, ok := b.Metrics["ns/op"]
				if !ok {
					return 0, fmt.Errorf("%s has no ns/op metric", name)
				}
				return v, nil
			}
		}
		return 0, fmt.Errorf("benchmark %q not found in report", name)
	}
	for _, pair := range strings.Split(spec, ",") {
		a, b, ok := strings.Cut(strings.TrimSpace(pair), "<")
		if !ok {
			return fmt.Errorf("bad -require-faster pair %q, want 'A<B' or 'A<F*B'", pair)
		}
		a, b = strings.TrimSpace(a), strings.TrimSpace(b)
		factor := 1.0
		if f, name, scaled := strings.Cut(b, "*"); scaled {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil || !(v > 0) || math.IsInf(v, 0) {
				return fmt.Errorf("bad factor %q in -require-faster pair %q, want a positive number", f, pair)
			}
			factor, b = v, strings.TrimSpace(name)
		}
		va, err := nsop(a)
		if err != nil {
			return err
		}
		vb, err := nsop(b)
		if err != nil {
			return err
		}
		if va >= factor*vb {
			if factor != 1 {
				return fmt.Errorf("regression: %s (%.0f ns/op) costs %.2fx %s (%.0f ns/op), bound %gx",
					a, va, va/vb, b, vb, factor)
			}
			return fmt.Errorf("regression: %s (%.0f ns/op) is not faster than %s (%.0f ns/op)", a, va, b, vb)
		}
		if factor != 1 {
			fmt.Fprintf(os.Stderr, "benchjson: %s (%.0f ns/op) costs %.2fx %s (%.0f ns/op), under the %gx bound\n",
				a, va, va/vb, b, vb, factor)
			continue
		}
		fmt.Fprintf(os.Stderr, "benchjson: %s (%.0f ns/op) faster than %s (%.0f ns/op): %.2fx\n",
			a, va, b, vb, vb/va)
	}
	return nil
}

// stampEnv records the environment of the run. benchjson runs right after
// the benchmarks in the same shell, so its GOMAXPROCS is the one they saw
// unless -cpu overrode it (the per-entry procs field shows that).
func stampEnv(rep *Report) {
	rep.NumCPU = runtime.NumCPU()
	rep.GOMAXPROCS = runtime.GOMAXPROCS(0)
	rep.GoVersion = runtime.Version()
	rep.Revision = gitRevision()
}

// gitRevision returns HEAD's commit hash, with "-dirty" when tracked files
// have uncommitted changes, or "" outside a git checkout.
func gitRevision() string {
	head, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	rev := strings.TrimSpace(string(head))
	if st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(st) > 0 {
		rev += "-dirty"
	}
	return rev
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}

// parse reads `go test -bench` output: header key: value lines and
// Benchmark... result lines; everything else (test logs, PASS/ok) is skipped.
func parse(r io.Reader) (*Report, error) {
	rep := &Report{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			if rep.Pkg == "" {
				rep.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			}
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			if res, ok := parseLine(line); ok {
				rep.Benchmarks = append(rep.Benchmarks, res)
			}
		}
	}
	return rep, sc.Err()
}

// parseLine parses one result line into a Result; ok is false for lines that
// merely start with "Benchmark" but are not results.
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	res := Result{Name: fields[0], Iterations: iters, Metrics: map[string]float64{}}
	if i := strings.LastIndexByte(res.Name, '-'); i > 0 {
		if procs, err := strconv.Atoi(res.Name[i+1:]); err == nil {
			res.Procs = procs
			res.Name = res.Name[:i]
		}
	}
	// Remaining fields are value/unit pairs: "123 ns/op", "0.99 accuracy".
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		res.Metrics[fields[i+1]] = v
	}
	return res, true
}
