package main

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"perspectron"
	"perspectron/internal/serve"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// smoke test's runner re-executes os.Executable() with -child, and those
// children must run the child roles, not the tests.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 3}, {0.99, 4.96}, {1, 5}, {0.25, 2},
	} {
		if got := quantile(xs, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of an empty sample is not NaN")
	}
	if xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
}

// The reference values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{2, 9, 4, 7, 5, 1, 8, 3, 6}, [3]float64{2.5, 5, 7.5}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5}); !near(got, 1) {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "rep", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "a", Start: 2, End: 5},
		{ID: 3, Parent: 1, Name: "b", Start: 4, End: 8},
		{ID: 4, Parent: 3, Name: "c", Start: 5, End: 6},
	}
	got := map[string]selfTime{}
	for _, s := range selfTimes(spans) {
		got[s.Name] = s
	}
	for name, want := range map[string]float64{"rep": 4e-9, "a": 3e-9, "b": 3e-9, "c": 1e-9} {
		if !near(got[name].SelfS, want) {
			t.Errorf("self time of %s = %v, want %v", name, got[name].SelfS, want)
		}
	}
	if c := rootChildrenCoverage(spans); !near(c, 0.6) {
		t.Errorf("coverage = %v, want 0.6", c)
	}
}

var (
	nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func loadTestCatalogue(t *testing.T) *catalogue {
	t.Helper()
	cat, err := loadCatalogue(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

func TestCatalogueNames(t *testing.T) {
	cat := loadTestCatalogue(t)
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRe.MatchString(name) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]", name)
		}
		if seen[name] {
			t.Errorf("name %q is declared twice", name)
		}
		seen[name] = true
	}
	for _, w := range cat.Workloads {
		check(w.Name)
	}
	for _, d := range append(append([]metricDef(nil), cat.EndToEnd...), cat.PerLayer...) {
		check(d.Name)
		if !unitRe.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
	}
	for _, d := range cat.EndToEnd {
		if d.Bound == nil || *d.Bound <= 0 || *d.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", d.Name)
		}
	}
	for _, d := range cat.PerLayer {
		if d.Bound != nil {
			t.Errorf("%s: per-layer metrics have no bound", d.Name)
		}
	}
}

// TestSmokeAllWorkloads runs the whole benchmark at tiny scale — three
// setups, every workload's reps, traced rep and probes, each in its own
// child process — and requires every check to pass and the emitted metrics
// to be exactly the declared ones.
func TestSmokeAllWorkloads(t *testing.T) {
	cat := loadTestCatalogue(t)
	var declared []string
	for _, d := range append(append([]metricDef(nil), cat.EndToEnd...), cat.PerLayer...) {
		declared = append(declared, d.Name)
	}
	sort.Strings(declared)

	r, err := newRunner(context.Background(), runOptions{seed: 3, seconds: 1, tiny: true,
		traceOut: filepath.Join(t.TempDir(), "trace.json")})
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	st, err := r.setup(true)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range cat.Workloads {
		o, err := r.workload(w.Name, st, true)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if len(o.failures) > 0 {
			t.Errorf("%s: checks failed: %v", w.Name, o.failures)
		}
		if o.attempted < 1 || o.failed != 0 {
			t.Errorf("%s: attempted %d, failed %d", w.Name, o.attempted, o.failed)
		}
		var emitted []string
		for k := range o.metrics {
			emitted = append(emitted, k)
		}
		sort.Strings(emitted)
		if strings.Join(emitted, " ") != strings.Join(declared, " ") {
			t.Errorf("%s emits\n%v\nBENCHMARK.json declares\n%v", w.Name, emitted, declared)
		}
		for _, defs := range [][]metricDef{cat.EndToEnd, cat.PerLayer} {
			if _, err := o.result(defs); err != nil {
				t.Error(err)
			}
		}
	}
	if err := r.writeTrace("smoke"); err != nil {
		t.Fatal(err)
	}
}

// testDetector is a three-feature detector, enough for AttributeFired.
func testDetector() *perspectron.Detector {
	return &perspectron.Detector{
		FeatureNames: []string{"a", "b", "c"},
		Weights:      []float64{0.5, -0.25, 1},
		Bias:         -0.1,
		Threshold:    0.25,
		Interval:     10_000,
	}
}

func TestExplainCheckCatchesTamper(t *testing.T) {
	det := testDetector()
	score, attr, err := det.AttributeFired([]int{0, 2}, attrK)
	if err != nil {
		t.Fatal(err)
	}
	rec := serve.VerdictRecord{Worker: "w", Mode: "detector", Score: score, Flagged: true,
		Fired: []int{0, 2}, Attr: attr}
	if err := checkExplain(det, []serve.VerdictRecord{rec}); err != nil {
		t.Fatalf("untampered record: %v", err)
	}
	tampered := rec
	tampered.Score = math.Nextafter(score, 2)
	if err := checkExplain(det, []serve.VerdictRecord{rec, tampered}); err == nil {
		t.Error("a tampered score passed the explain check")
	}
	tampered = rec
	tampered.Attr = append([]perspectron.Contribution(nil), attr...)
	tampered.Attr[0].Weight = 0.75
	if err := checkExplain(det, []serve.VerdictRecord{tampered}); err == nil {
		t.Error("a tampered attribution passed the explain check")
	}
	if err := checkExplain(det, []serve.VerdictRecord{{Worker: "w"}}); err == nil {
		t.Error("a log with nothing attributed passed the explain check")
	}
}

func TestCheckLedger(t *testing.T) {
	h := serve.Health{Durable: &serve.DurableHealth{Enqueued: 10, Records: 10}}
	if err := checkLedger(h, 10); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []serve.DurableHealth{
		{Enqueued: 10, Records: 9},
		{Enqueued: 10, Records: 9, Lost: 1},
	} {
		if err := checkLedger(serve.Health{Durable: &bad}, int(bad.Records)); err == nil {
			t.Errorf("ledger %+v passed", bad)
		}
	}
	if err := checkLedger(h, 9); err == nil {
		t.Error("a log shorter than the ledger passed")
	}
}

func TestCompareServeDigests(t *testing.T) {
	a := &childResult{Completed: map[string]int{"w": 2},
		Digest: map[string]string{"w/0/0": "x", "w/1/0": "y"}}
	b := &childResult{Completed: map[string]int{"w": 1},
		Digest: map[string]string{"w/0/0": "x"}}
	if f := compareDigests(wServe, a, b); len(f) != 0 {
		t.Errorf("episode 1 was incomplete in b, yet: %v", f)
	}
	b.Completed["w"] = 2
	if f := compareDigests(wServe, a, b); len(f) != 1 {
		t.Errorf("a verdict missing from a completed episode gave %v", f)
	}
	b.Digest["w/1/0"] = "z"
	if f := compareDigests(wServe, a, b); len(f) != 1 {
		t.Errorf("a differing verdict gave %v", f)
	}
}
