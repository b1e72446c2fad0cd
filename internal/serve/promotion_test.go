package serve

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"perspectron"
)

// testGolden collects a small held-out golden corpus once for the gate tests.
var (
	testGolden    *perspectron.GoldenSet
	testGoldenErr error
)

func goldenSet(t *testing.T) *perspectron.GoldenSet {
	t.Helper()
	if testGolden == nil && testGoldenErr == nil {
		opts := perspectron.DefaultOptions()
		opts.MaxInsts = 60_000
		opts.Runs = 1
		opts.Seed = 8181
		workloads := append([]perspectron.Workload{}, perspectron.BenignWorkloads()[:2]...)
		workloads = append(workloads, perspectron.AttackByName("spectreV1", "fr"))
		testGolden, testGoldenErr = perspectron.CollectGolden(workloads, opts)
	}
	if testGoldenErr != nil {
		t.Fatal(testGoldenErr)
	}
	return testGolden
}

// negated returns a copy of det with every weight (and the bias) negated —
// a deliberately regressed model whose scores invert.
func negated(det *perspectron.Detector) *perspectron.Detector {
	bad := *det
	bad.Weights = append([]float64(nil), det.Weights...)
	for i := range bad.Weights {
		bad.Weights[i] = -bad.Weights[i]
	}
	bad.Bias = -det.Bias
	bad.Checksum = ""
	bad.Lineage = det.Lineage.Clone()
	return &bad
}

// TestPromotionGateNeverReloadsRegression is the rejected half of the
// continual-learning e2e: a deliberately regressed candidate must never reach
// a running supervisor's live model, no matter how many gate rounds run.
func TestPromotionGateNeverReloadsRegression(t *testing.T) {
	det, _ := testModels(t)
	g := goldenSet(t)
	dir := t.TempDir()
	livePath := filepath.Join(dir, "det.json")
	candPath := filepath.Join(dir, "det.json.candidate")
	if err := det.SaveFile(livePath); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		DetectorPath: livePath,
		Workloads:    []perspectron.Workload{perspectron.AttackByName("spectreV1", "fr")},
		MaxInsts:     30_000,
		MaxEpisodes:  1,
		backoff:      fastBackoff(),
		PollInterval: time.Hour, // ticks driven manually via pollNow
	})
	if err != nil {
		t.Fatal(err)
	}
	v1 := s.Models().Det.Version()

	if err := negated(det).SaveFile(candPath); err != nil {
		t.Fatal(err)
	}
	p, err := perspectron.PromoteDetector(candPath, livePath, g)
	if err != nil {
		t.Fatal(err)
	}
	if p.Promoted {
		t.Fatalf("regressed candidate promoted: cand %+v base %+v", p.Candidate, p.Baseline)
	}
	s.pollNow()
	if got := s.Models().Det.Version(); got != v1 {
		t.Fatalf("rejected candidate reached the supervisor: %s -> %s", v1, got)
	}
	if _, err := os.Stat(livePath + ".rejected"); err != nil {
		t.Fatalf("rejected candidate not preserved: %v", err)
	}
}

// TestPromotionGateHotReload is the promoted half: a strictly better
// candidate passes the gate, goes live atomically, and the running
// supervisor's watcher picks it up — version visible in /healthz.
func TestPromotionGateHotReload(t *testing.T) {
	det, _ := testModels(t)
	g := goldenSet(t)
	dir := t.TempDir()
	livePath := filepath.Join(dir, "det.json")
	candPath := filepath.Join(dir, "det.json.candidate")

	// The live baseline is the regressed model; the candidate is the real
	// detector — strictly better on every gated metric.
	if err := negated(det).SaveFile(livePath); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		DetectorPath: livePath,
		Workloads:    []perspectron.Workload{perspectron.AttackByName("spectreV1", "fr")},
		MaxInsts:     30_000,
		MaxEpisodes:  1,
		backoff:      fastBackoff(),
		PollInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	v0 := s.Models().Det.Version()

	if err := det.SaveFile(candPath); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // ensure the promoted file gets a distinct mtime
	p, err := perspectron.PromoteDetector(candPath, livePath, g)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Promoted {
		t.Fatalf("better candidate rejected: %s", p.Reason)
	}
	if regs := p.Baseline.RegressionsAgainst(p.Candidate); len(regs) == 0 {
		t.Fatalf("baseline not strictly worse than candidate: base %+v cand %+v", p.Baseline, p.Candidate)
	}
	s.pollNow()
	got := s.Models().Det.Version()
	if got == v0 {
		t.Fatalf("promoted candidate not hot-reloaded (still %s)", v0)
	}
	live, err := perspectron.LoadFile(livePath)
	if err != nil {
		t.Fatal(err)
	}
	if got != live.Version() {
		t.Fatalf("supervisor runs %s, live file is %s", got, live.Version())
	}
	if live.Lineage == nil || live.Lineage.Eval == nil || live.Lineage.PromotedAt == "" {
		t.Fatalf("promoted checkpoint missing lineage stamp: %+v", live.Lineage)
	}
	if h := s.Health(); h.DetectorVersion != got {
		t.Fatalf("healthz reports %s, supervisor runs %s", h.DetectorVersion, got)
	}
}

// TestDriftProbeDegradesHealth pins the drift surface: an attached probe's
// values land in Health, an alarm degrades the status (hence the /readyz
// body), and detaching restores it.
func TestDriftProbeDegradesHealth(t *testing.T) {
	det, _ := testModels(t)
	s, err := New(Config{
		detector:    det,
		Workloads:   []perspectron.Workload{perspectron.AttackByName("spectreV1", "fr")},
		MaxInsts:    30_000,
		MaxEpisodes: 1,
		backoff:     fastBackoff(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if h := s.Health(); h.ShadowDrift != 0 || h.DriftAlarm || h.Status != "ok" {
		t.Fatalf("health before probe: %+v", h)
	}

	s.SetDriftProbe(func() (float64, bool) { return 0.42, true })
	h := s.Health()
	if h.ShadowDrift != 0.42 || !h.DriftAlarm {
		t.Fatalf("probe not surfaced: drift=%v alarm=%v", h.ShadowDrift, h.DriftAlarm)
	}
	if h.Status != "degraded" {
		t.Fatalf("drift alarm left status %q, want degraded", h.Status)
	}
	// The /readyz body is truthful about drift degradation once serving.
	s.ready.Store(true)
	rr := httptest.NewRecorder()
	s.Readyz().ServeHTTP(rr, httptest.NewRequest("GET", "/readyz", nil))
	if rr.Code != 200 || rr.Body.String() != "degraded\n" {
		t.Fatalf("readyz under drift alarm = %d %q, want 200 \"degraded\"", rr.Code, rr.Body.String())
	}
	s.ready.Store(false)

	s.SetDriftProbe(nil)
	if h := s.Health(); h.ShadowDrift != 0 || h.DriftAlarm || h.Status != "ok" {
		t.Fatalf("detached probe still degrades: %+v", h)
	}
}
