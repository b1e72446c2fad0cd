package main

import (
	"context"
	"fmt"
	"io"
	"os"
)

// repeatCheckMain runs two sets of `runs` untraced runs of each workload
// (or of only the named one), each run with its own seed and set-up, and
// prints every end-to-end metric's median, quartile spread and the shift
// between the sets' medians against the metric's bound. The spread of
// setup_s is shown but not judged; its shift is.
func repeatCheckMain(cat *catalogue, opts runOptions, only string, runs int) error {
	if runs < 2 {
		return fmt.Errorf("-repeat-check needs -runs of at least 2")
	}
	var names []string
	for _, w := range cat.Workloads {
		if only == "" || w.Name == only {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("workload %q is not declared in BENCHMARK.json", only)
	}
	// values[workload][metric][set] holds one value per run.
	values := map[string]map[string][2][]float64{}
	for set := 0; set < 2; set++ {
		for _, name := range names {
			if values[name] == nil {
				values[name] = map[string][2][]float64{}
			}
			for i := 0; i < runs; i++ {
				o := opts
				o.seed = opts.seed + int64(set*runs+i)
				out, err := oneRun(o, name)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", name, o.seed, err)
				}
				if len(out.failures) > 0 {
					return fmt.Errorf("%s seed %d: check failed: %v", name, o.seed, out.failures)
				}
				got := map[string]float64{}
				for _, d := range cat.EndToEnd {
					v := values[name][d.Name]
					v[set] = append(v[set], out.metrics[d.Name])
					values[name][d.Name] = v
					got[d.Name] = out.metrics[d.Name]
				}
				fmt.Fprintf(os.Stderr, "repeat-check: set %d %s seed %d: %v\n", set+1, name, o.seed, got)
			}
		}
	}
	if !printRepeatTable(os.Stdout, cat, names, values) {
		return fmt.Errorf("a metric's spread or shift exceeded its bound")
	}
	return nil
}

// oneRun is one untraced run of name, with its own setup.
func oneRun(opts runOptions, name string) (*outcome, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	r, err := newRunner(ctx, opts)
	if err != nil {
		return nil, err
	}
	defer r.close()
	st, err := r.setup(false)
	if err != nil {
		return nil, err
	}
	return r.workload(name, st, false)
}

// printRepeatTable prints the repeat-check table and reports whether every
// metric held its bound. The shift is how much worse set 2's median is
// than set 1's, as a share of set 1's (negative: better).
func printRepeatTable(w io.Writer, cat *catalogue, names []string, values map[string]map[string][2][]float64) bool {
	ok := true
	fmt.Fprintf(w, "%-18s %-18s %7s %12s %8s %12s %8s %8s  %s\n",
		"workload", "metric", "bound", "median1", "spread1", "median2", "spread2", "shift", "verdict")
	for _, name := range names {
		for _, d := range cat.EndToEnd {
			v := values[name][d.Name]
			m1, m2 := median(v[0]), median(v[1])
			s1, s2 := spread(v[0]), spread(v[1])
			shift := (m2 - m1) / m1
			if d.Better == "higher" {
				shift = -shift
			}
			bound := *d.Bound
			verdict := "ok"
			if shift > bound || (d.Name != "setup_s" && (s1 > bound || s2 > bound)) {
				verdict, ok = "EXCEEDS BOUND", false
			} else if d.Name != "setup_s" && (s1 > bound/3 || s2 > bound/3) {
				verdict = "ok (spread above a third of the bound)"
			}
			fmt.Fprintf(w, "%-18s %-18s %6.1f%% %12.6g %7.2f%% %12.6g %7.2f%% %7.2f%%  %s\n",
				name, d.Name, bound*100, m1, s1*100, m2, s2*100, shift*100, verdict)
		}
	}
	return ok
}
