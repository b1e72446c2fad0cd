package shadow

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"perspectron"
)

// shadowDetector trains one small detector for the whole package.
var (
	detOnce sync.Once
	detMem  *perspectron.Detector
	detErr  error
)

func trainedDetector(t *testing.T) *perspectron.Detector {
	t.Helper()
	detOnce.Do(func() {
		opts := perspectron.DefaultOptions()
		opts.MaxInsts = 100_000
		opts.Runs = 1
		detMem, detErr = perspectron.Train(perspectron.TrainingWorkloads(), opts)
	})
	if detErr != nil {
		t.Fatal(detErr)
	}
	return detMem
}

func shadowWorkloads() []perspectron.Workload {
	w := append([]perspectron.Workload{}, perspectron.BenignWorkloads()[:2]...)
	return append(w, perspectron.AttackByName("spectreV1", "fr"))
}

func shadowConfig(t *testing.T, livePath string) Config {
	t.Helper()
	opts := perspectron.DefaultOptions()
	opts.MaxInsts = 60_000
	opts.Runs = 1
	opts.Seed = 31
	return Config{
		DetectorPath: livePath,
		Workloads:    shadowWorkloads(),
		Opts:         opts,
		Budget:       3,
	}
}

func TestNewValidates(t *testing.T) {
	if _, err := New(Config{Workloads: shadowWorkloads()}); err == nil {
		t.Fatalf("missing DetectorPath accepted")
	}
	if _, err := New(Config{DetectorPath: "x"}); err == nil {
		t.Fatalf("missing workloads accepted")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{DetectorPath: bad, Workloads: shadowWorkloads()}); err == nil {
		t.Fatalf("corrupt initial checkpoint accepted")
	}
}

// TestRunOnceRetrainsAndGates drives two full rounds against a real live
// checkpoint and a verdict log containing good, corrupt and partial lines:
// each round must tail the log with attribution, retrain incrementally, stage
// a candidate, and leave the live path holding whatever the gate decided —
// a loadable checkpoint whose lineage only advances.
func TestRunOnceRetrainsAndGates(t *testing.T) {
	det := trainedDetector(t)
	dir := t.TempDir()
	livePath := filepath.Join(dir, "det.json")
	logPath := filepath.Join(dir, "verdicts.jsonl")
	if err := det.SaveFile(livePath); err != nil {
		t.Fatal(err)
	}
	v := det.Version()
	good := `{"worker":"w","episode":1,"sample":1,"mode":"detector","score":1,"version":"` + v + `"}` + "\n"
	// A forensics-stamped record: fired set + top-k attribution, the shape the
	// serving layer writes for flagged verdicts.
	attributed := `{"worker":"w","episode":1,"sample":2,"mode":"detector","score":1,"flagged":true,` +
		`"version":"` + v + `","fired":[0,3],"attr":[` +
		`{"slot":3,"feature":"dcache.misses","weight":0.5,"share":0.6},` +
		`{"slot":0,"feature":"btb.lookups","weight":-0.3,"share":-0.4}]}` + "\n"
	if err := os.WriteFile(logPath, []byte(good+attributed+"corrupt\n"+`{"partial`), 0o644); err != nil {
		t.Fatal(err)
	}

	cfg := shadowConfig(t, livePath)
	cfg.VerdictLog = logPath
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	r1, err := tr.RunOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Round != 1 || r1.VerdictsSeen != 2 || r1.CorruptLines != 1 || r1.Attributed != 1 {
		t.Fatalf("round 1 tail: %+v", r1)
	}
	if r1.FreshSamples == 0 || r1.Epochs < 1 || r1.Epochs > 3 {
		t.Fatalf("round 1 fit: %+v", r1)
	}
	if r1.Promotion == nil {
		t.Fatalf("round 1 ran no gate")
	}
	if _, err := os.Stat(cfg.DetectorPath + ".candidate"); err != nil {
		t.Fatalf("candidate not staged: %v", err)
	}
	live, err := perspectron.LoadFile(livePath)
	if err != nil {
		t.Fatalf("live checkpoint unloadable after round: %v", err)
	}
	if r1.Promotion.Promoted {
		if live.Lineage == nil || live.Lineage.Generation != 1 || live.Lineage.Parent == "" {
			t.Fatalf("promoted generation-1 lineage wrong: %+v", live.Lineage)
		}
	} else if live.Version() != v {
		t.Fatalf("rejected round changed the live model: %s -> %s", v, live.Version())
	}

	// Round 2: the tail resumes past consumed bytes (the partial line was
	// not consumed, still undecodable → corrupt once completed differently;
	// here nothing new was appended, so nothing is seen).
	r2, err := tr.RunOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r2.Round != 2 || r2.VerdictsSeen != 0 {
		t.Fatalf("round 2 re-read consumed verdicts: %+v", r2)
	}

	tr.SetListenAddr("127.0.0.1:9464")
	h := tr.Health()
	if h.Rounds != 2 || h.Verdicts != 2 || h.CorruptLines != 1 {
		t.Fatalf("health accounting: %+v", h)
	}
	if h.VerdictsByVersion[v] != 2 {
		t.Fatalf("verdict attribution: %+v", h.VerdictsByVersion)
	}
	if h.AttributedVerdicts != 1 {
		t.Fatalf("attributed verdicts = %d, want 1", h.AttributedVerdicts)
	}
	// Ties rank alphabetically, so the per-feature counts are deterministic.
	if len(h.TopAttributed) != 2 ||
		h.TopAttributed[0] != (FeatureCount{Feature: "btb.lookups", Count: 1}) ||
		h.TopAttributed[1] != (FeatureCount{Feature: "dcache.misses", Count: 1}) {
		t.Fatalf("top attributed features: %+v", h.TopAttributed)
	}
	if h.MetricsAddr != "127.0.0.1:9464" || h.UptimeSeconds <= 0 {
		t.Fatalf("self-discovery fields: addr %q uptime %v", h.MetricsAddr, h.UptimeSeconds)
	}
	if h.Promotions+h.Rejections != 2 {
		t.Fatalf("gate decisions = %d promoted + %d rejected, want 2 total", h.Promotions, h.Rejections)
	}
	if h.LastPromotion == nil || h.LastError != "" {
		t.Fatalf("health gate surface: %+v", h)
	}
}

func TestDriftEWMAAndAlarm(t *testing.T) {
	dir := t.TempDir()
	livePath := filepath.Join(dir, "det.json")
	if err := trainedDetector(t).SaveFile(livePath); err != nil {
		t.Fatal(err)
	}
	tr, err := New(shadowConfig(t, livePath))
	if err != nil {
		t.Fatal(err)
	}
	if d, alarm := tr.Drift(); d != 0 || alarm {
		t.Fatalf("drift before any round: %v %v", d, alarm)
	}

	if driftAlpha != 0.3 || driftThreshold != 0.25 || goldenSeedOffset != 9973 {
		t.Fatalf("fixed-policy constant moved")
	}
	// First observation seeds the EWMA; later ones fold in with alpha.
	if got := tr.observeDrift(0.1); got != 0.1 {
		t.Fatalf("seed drift = %v, want 0.1", got)
	}
	if got, want := tr.observeDrift(0.9), driftAlpha*0.9+(1-driftAlpha)*0.1; got != want {
		t.Fatalf("smoothed drift = %v, want %v", got, want)
	}
	d, alarm := tr.Drift()
	if d <= driftThreshold || !alarm {
		t.Fatalf("drift %v over threshold %v did not alarm", d, driftThreshold)
	}
	h := tr.Health()
	if !h.DriftAlarm || h.Status != "degraded" {
		t.Fatalf("alarm not degrading health: %+v", h)
	}

	// The standalone health surface mirrors the supervisor's: /readyz body
	// says degraded while the alarm is up.
	rr := httptest.NewRecorder()
	tr.Handlers()["/readyz"].ServeHTTP(rr, httptest.NewRequest("GET", "/readyz", nil))
	if rr.Code != 200 || rr.Body.String() != "degraded\n" {
		t.Fatalf("readyz under alarm = %d %q", rr.Code, rr.Body.String())
	}

	// Decay back under the threshold clears the alarm.
	tr.observeDrift(0)
	tr.observeDrift(0)
	if _, alarm := tr.Drift(); alarm {
		t.Fatalf("alarm stuck after decay (drift %v)", func() float64 { d, _ := tr.Drift(); return d }())
	}
}
