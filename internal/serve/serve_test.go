package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"perspectron"
	"perspectron/internal/isa"
	"perspectron/internal/retry"
	"perspectron/internal/telemetry"
	"perspectron/internal/workload"
)

// --- shared trained models (one training run for the whole package) ------

var (
	modelsOnce sync.Once
	testDet    *perspectron.Detector
	testCls    *perspectron.Classifier
	modelsErr  error
)

func testModels(t testing.TB) (*perspectron.Detector, *perspectron.Classifier) {
	t.Helper()
	modelsOnce.Do(func() {
		opts := perspectron.DefaultOptions()
		opts.MaxInsts = 100_000
		opts.Runs = 1
		testDet, modelsErr = perspectron.Train(perspectron.TrainingWorkloads(), opts)
		if modelsErr != nil {
			return
		}
		opts.MaxInsts = 150_000
		testCls, modelsErr = perspectron.TrainClassifier(perspectron.TrainingWorkloads(), opts)
	})
	if modelsErr != nil {
		t.Fatal(modelsErr)
	}
	return testDet, testCls
}

// fastBackoff keeps supervisor tests quick and deterministic.
func fastBackoff() retry.Policy {
	return retry.Policy{Base: time.Millisecond, Max: 5 * time.Millisecond, Factor: 2, Jitter: 0.1}
}

// --- synthetic workloads -------------------------------------------------

// plainStream emits computational ops, ending after limit when > 0.
type plainStream struct {
	n     uint64
	limit uint64
	op    isa.Op
}

func (s *plainStream) Next() (*isa.Op, bool) {
	if s.limit > 0 && s.n >= s.limit {
		return nil, false
	}
	s.n++
	s.op = isa.Op{Kind: isa.KindPlain, Class: isa.IntAlu, PC: 0x4000 + 4*s.n}
	return &s.op, true
}

// panicProg panics mid-stream on its first `failures` runs, then behaves —
// the worker-panic resilience case.
type panicProg struct {
	failures int32
	attempts atomic.Int32
}

func (p *panicProg) Info() workload.Info {
	return workload.Info{Name: "panicker", Label: workload.Benign, Category: "test"}
}

func (p *panicProg) Stream(_ *rand.Rand) isa.Stream {
	n := p.attempts.Add(1)
	return &panicStream{panics: n <= p.failures}
}

type panicStream struct {
	n      uint64
	panics bool
	op     isa.Op
}

func (s *panicStream) Next() (*isa.Op, bool) {
	s.n++
	if s.panics && s.n > 5_000 {
		panic("workload bug")
	}
	s.op = isa.Op{Kind: isa.KindPlain, Class: isa.IntAlu, PC: 0x4000 + 4*s.n}
	return &s.op, true
}

// stallProg delivers ops briskly until stallAfter, then crawls (delay per
// op) for stallOps more ops and ends. The self-termination bound matters:
// the producer goroutine only notices cancellation between ops, so an
// unbounded stall would outlive the test.
type stallProg struct {
	stallAfter uint64
	delay      time.Duration
	stallOps   uint64
}

func (p *stallProg) Info() workload.Info {
	return workload.Info{Name: "staller", Label: workload.Benign, Category: "test"}
}

func (p *stallProg) Stream(_ *rand.Rand) isa.Stream {
	return &stallStream{p: p}
}

type stallStream struct {
	p  *stallProg
	n  uint64
	op isa.Op
}

func (s *stallStream) Next() (*isa.Op, bool) {
	s.n++
	if s.n > s.p.stallAfter {
		if s.n > s.p.stallAfter+s.p.stallOps {
			return nil, false
		}
		time.Sleep(s.p.delay)
	}
	s.op = isa.Op{Kind: isa.KindPlain, Class: isa.IntAlu, PC: 0x4000 + 4*s.n}
	return &s.op, true
}

// --- unit tests ----------------------------------------------------------

func TestBreakerLifecycle(t *testing.T) {
	now := time.Unix(0, 0)
	b := newBreaker(3, time.Minute)
	b.now = func() time.Time { return now }

	for i := 0; i < 2; i++ {
		if opened := b.failure(); opened {
			t.Fatalf("breaker opened after %d failures, threshold 3", i+1)
		}
		if !b.allow() {
			t.Fatalf("closed breaker refused an episode")
		}
	}
	if !b.failure() {
		t.Fatalf("third failure did not open the breaker")
	}
	if b.allow() {
		t.Fatalf("open breaker admitted an episode before cooldown")
	}
	now = now.Add(time.Minute) // cooldown elapsed → half-open trial
	if !b.allow() {
		t.Fatalf("cooled-down breaker refused the trial episode")
	}
	if !b.failure() { // failed trial re-opens immediately
		t.Fatalf("failed half-open trial did not re-open")
	}
	now = now.Add(time.Minute)
	if !b.allow() {
		t.Fatalf("second trial refused")
	}
	b.success()
	state, failures, trips := b.snapshot()
	if state != "closed" || failures != 0 || trips != 2 {
		t.Fatalf("after success: state=%s failures=%d trips=%d, want closed/0/2", state, failures, trips)
	}
}

func TestLadderWalksDownAndClimbsBack(t *testing.T) {
	l := newLadder(0.9, 0.5, 0.05, true)
	if mode, _ := l.observe(1.0); mode != perspectron.ModeClassifier {
		t.Fatalf("full coverage mode = %s, want classifier", mode)
	}
	// Sustained partial coverage: classifier floor breaks first...
	var mode perspectron.ServeMode
	for i := 0; i < 20; i++ {
		mode, _ = l.observe(0.7)
	}
	if mode != perspectron.ModeDetector {
		t.Fatalf("EWMA 0.7 mode = %s, want detector", mode)
	}
	// ...then the detector floor.
	for i := 0; i < 20; i++ {
		mode, _ = l.observe(0.3)
	}
	if mode != perspectron.ModeThreshold {
		t.Fatalf("EWMA 0.3 mode = %s, want threshold", mode)
	}
	// Climb back is one rung per observation past floor+hysteresis.
	for i := 0; i < 50 && mode != perspectron.ModeClassifier; i++ {
		mode, _ = l.observe(1.0)
	}
	if mode != perspectron.ModeClassifier {
		t.Fatalf("full coverage never climbed back to classifier (mode=%s)", mode)
	}
	// Without a classifier the top rung is the detector.
	l2 := newLadder(0.9, 0.5, 0.05, false)
	if mode, _ := l2.observe(1.0); mode != perspectron.ModeDetector {
		t.Fatalf("detector-only ladder mode = %s, want detector", mode)
	}
}

func TestLadderHysteresisPreventsFlapping(t *testing.T) {
	l := newLadder(0.9, 0.5, 0.05, true)
	for i := 0; i < 30; i++ {
		l.observe(0.85) // below the classifier floor
	}
	// Hovering just above the floor but inside the hysteresis band must not
	// climb back.
	changes := 0
	for i := 0; i < 30; i++ {
		if _, changed := l.observe(0.92); changed {
			changes++
		}
	}
	if changes != 0 {
		t.Fatalf("ladder flapped %d times inside the hysteresis band", changes)
	}
	if mode, _ := l.snapshot(); mode != perspectron.ModeDetector {
		t.Fatalf("mode = %s, want detector held by hysteresis", mode)
	}
}

func TestVerdictLogJSONL(t *testing.T) {
	var buf bytes.Buffer
	l := newVerdictLog(&buf)
	l.record(VerdictRecord{Worker: "w", Episode: 1, Sample: 2, Mode: "detector", Score: 0.5, Flagged: true, Coverage: 1})
	l.record(VerdictRecord{Worker: "w", Episode: 1, Sample: 3, Mode: "threshold", Score: -0.1, Coverage: 0.4})
	if err := l.flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 || l.count() != 2 {
		t.Fatalf("wrote %d lines, counted %d, want 2/2", len(lines), l.count())
	}
	sc := NewVerdictScanner(strings.NewReader(buf.String()))
	rec, ok := sc.Next()
	if !ok {
		t.Fatalf("scanner decoded no records (err %v)", sc.Err())
	}
	if rec.Mode != "detector" || !rec.Flagged {
		t.Fatalf("round trip lost fields: %+v", rec)
	}
	// Nil log: all operations are no-ops.
	var nilLog *verdictLog
	nilLog.record(VerdictRecord{})
	if nilLog.flush() != nil || nilLog.count() != 0 {
		t.Fatalf("nil verdict log misbehaved")
	}
}

// --- service tests -------------------------------------------------------

func TestServiceScoresAndLogsVerdicts(t *testing.T) {
	det, cls := testModels(t)
	var buf bytes.Buffer
	s, err := New(Config{
		detector:    det,
		classifier:  cls,
		Workloads:   []perspectron.Workload{perspectron.AttackByName("spectreV1", "fr")},
		MaxInsts:    60_000,
		MaxEpisodes: 2,
		backoff:     fastBackoff(),
		VerdictLog:  &buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := s.Run(ctx); err != nil {
		t.Fatalf("run: %v", err)
	}
	h := s.Health()
	if len(h.Workers) != 1 || h.Workers[0].Episodes != 2 {
		t.Fatalf("health = %+v, want 2 completed episodes", h.Workers)
	}
	if h.Workers[0].Mode != "classifier" {
		t.Fatalf("clean run degraded to %s", h.Workers[0].Mode)
	}
	flagged, total := 0, 0
	sc := NewVerdictScanner(bytes.NewReader(buf.Bytes()))
	for {
		rec, ok := sc.Next()
		if !ok {
			break
		}
		total++
		if rec.Flagged {
			flagged++
		}
	}
	if sc.Corrupt() != 0 || sc.Err() != nil {
		t.Fatalf("verdict log unparseable: corrupt=%d err=%v", sc.Corrupt(), sc.Err())
	}
	if total == 0 || flagged == 0 {
		t.Fatalf("spectreV1 produced %d verdicts, %d flagged", total, flagged)
	}
}

// TestVerdictLatencyStaysUnderOneMs guards inline scoring: four CPU-bound
// simulated streams on 2 Ps, each scoring its own samples as they complete.
// A verdict that waits on a queue, a scorer wake-up or another stream's
// simulation pays up to a sample interval (about 2.5 ms here); scored in
// the call that completed the sample, the p99 verdict costs microseconds.
// Race instrumentation slows scoring past any useful bound, so the guard
// runs only without the race detector.
func TestVerdictLatencyStaysUnderOneMs(t *testing.T) {
	if raceEnabled {
		t.Skip("latency bound needs an uninstrumented build")
	}
	det, _ := testModels(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	ws := []perspectron.Workload{
		perspectron.AttackByName("spectreV1", "fr"),
		perspectron.AttackByName("flush+reload", "fr"),
	}
	for _, b := range perspectron.BenignWorkloads() {
		if name := b.Info().Name; name == "gcc" || name == "mcf" {
			ws = append(ws, b)
		}
	}
	var buf bytes.Buffer
	s, err := New(Config{
		detector:   det,
		Workloads:  ws,
		MaxInsts:   500_000,
		backoff:    fastBackoff(),
		VerdictLog: &buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.Run(ctx); err != nil && ctx.Err() == nil {
		t.Fatalf("run: %v", err)
	}
	var latency []float64
	sc := NewVerdictScanner(bytes.NewReader(buf.Bytes()))
	for rec, ok := sc.Next(); ok; rec, ok = sc.Next() {
		latency = append(latency, rec.LatencyMs)
	}
	if len(latency) < 100 {
		t.Fatalf("only %d verdicts in 2s of %d streams", len(latency), len(ws))
	}
	sort.Float64s(latency)
	p99 := latency[len(latency)*99/100]
	t.Logf("p99 verdict latency %.4f ms over %d verdicts", p99, len(latency))
	if p99 >= 1 {
		t.Fatalf("p99 verdict latency %.3f ms, want < 1 ms: "+
			"verdicts wait on something other than scoring", p99)
	}
}

func TestServiceSurvivesWorkloadPanics(t *testing.T) {
	delta := counterDelta()
	det, _ := testModels(t)
	prog := &panicProg{failures: 2}
	s, err := New(Config{
		detector:         det,
		Workloads:        []perspectron.Workload{prog},
		MaxInsts:         30_000,
		MaxEpisodes:      1,
		backoff:          fastBackoff(),
		breakerThreshold: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Run(ctx); err != nil {
		t.Fatalf("run: %v", err)
	}
	h := s.Health()
	if h.Workers[0].Episodes != 1 || h.Workers[0].Failures != 2 {
		t.Fatalf("worker health = %+v, want 1 episode after 2 panicked attempts", h.Workers[0])
	}
	fails := delta(telemetry.Name("perspectron_serve_episode_failures_total", "family", "benign"))
	if fails != 2 {
		t.Fatalf("failure counter = %d, want 2", fails)
	}
	if !strings.Contains(h.Workers[0].LastErr, "panicked") {
		t.Fatalf("last error %q does not surface the panic", h.Workers[0].LastErr)
	}
}

func TestServiceStalledSourceHitsDeadlineAndBreaker(t *testing.T) {
	det, _ := testModels(t)
	// Each stall outlasts sampleTimeout (40 ops at 10ms) but self-terminates
	// so a stalled episode ends by itself. The first stalls before the first
	// sample; the second past two sampling intervals, so the gap from the
	// last sample is measured too.
	for _, c := range []struct {
		name       string
		stallAfter uint64
	}{
		{"before-first-sample", 2_000},
		{"mid-run", 2*det.Interval + 2_000},
	} {
		t.Run(c.name, func(t *testing.T) {
			delta := counterDelta()
			prog := &stallProg{stallAfter: c.stallAfter, delay: 10 * time.Millisecond, stallOps: 40}
			s, err := New(Config{
				detector:         det,
				Workloads:        []perspectron.Workload{prog},
				MaxInsts:         1 << 40, // only the stall machinery ends a run
				MaxEpisodes:      1,
				sampleTimeout:    80 * time.Millisecond,
				backoff:          fastBackoff(),
				breakerThreshold: 2,
				breakerCooldown:  20 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			// The worker can never complete an episode; run until the breaker
			// has tripped at least once, then drain.
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			done := make(chan error, 1)
			go func() { done <- s.Run(ctx) }()
			deadline := time.After(25 * time.Second)
			for {
				if delta(telemetry.Name("perspectron_serve_breaker_open_total", "family", "benign")) >= 1 {
					break
				}
				select {
				case <-deadline:
					t.Fatalf("breaker never opened; failures=%d",
						delta(telemetry.Name("perspectron_serve_episode_failures_total", "family", "benign")))
				case <-time.After(50 * time.Millisecond):
				}
			}
			cancel()
			if err := <-done; err != context.Canceled {
				t.Fatalf("drained run returned %v, want context.Canceled", err)
			}
			h := s.Health()
			if h.Workers[0].Failures < 2 {
				t.Fatalf("stalled worker recorded %d failures, want >= 2", h.Workers[0].Failures)
			}
			if !strings.Contains(h.Workers[0].LastErr, "stalled") && !strings.Contains(h.Workers[0].LastErr, "deadline") {
				t.Fatalf("last error %q does not mention the stall", h.Workers[0].LastErr)
			}
			if want, enqueued := int64(c.stallAfter/det.Interval), s.sessionEnqueued(); enqueued < want {
				t.Fatalf("%d samples admitted, want at least the %d before the first stall", enqueued, want)
			}
		})
	}
}

func TestServiceDegradesUnderFaults(t *testing.T) {
	det, cls := testModels(t)
	s, err := New(Config{
		detector:    det,
		classifier:  cls,
		Workloads:   []perspectron.Workload{perspectron.AttackByName("flush+reload", "")},
		MaxInsts:    60_000,
		MaxEpisodes: 2,
		backoff:     fastBackoff(),
		faults:      &perspectron.FaultConfig{Seed: 7, Dropout: 0.25},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := s.Run(ctx); err != nil {
		t.Fatalf("run: %v", err)
	}
	h := s.Health()
	w := h.Workers[0]
	if w.Mode != "detector" {
		t.Fatalf("25%% dropout left mode %s, want detector (coverage %.3f)", w.Mode, w.Coverage)
	}
	if w.Coverage < 0.6 || w.Coverage > 0.9 {
		t.Fatalf("smoothed coverage %.3f, want ~0.75", w.Coverage)
	}
	if h.Status != "degraded" && h.Status != "draining" {
		t.Fatalf("status = %q, want degraded", h.Status)
	}
}

func TestServiceHotReloadAndRollback(t *testing.T) {
	delta := counterDelta()
	det, _ := testModels(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "det.json")
	if err := det.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		DetectorPath: path,
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

	// A good new checkpoint hot-swaps in.
	mod := *det
	mod.Threshold = det.Threshold + 0.05
	time.Sleep(10 * time.Millisecond) // ensure a distinct mtime
	if err := mod.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	s.pollNow()
	v2 := s.Models().Det.Version()
	if v2 == v1 {
		t.Fatalf("good checkpoint did not swap in")
	}
	if got := delta(telemetry.Name("perspectron_serve_reloads_total", "result", "ok")); got != 1 {
		t.Fatalf("ok-reload counter = %d, want 1", got)
	}

	// A corrupt checkpoint (bit-flipped value, checksum intact) rolls back:
	// the last good model stays live and the failure is surfaced.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := strings.Replace(string(raw), `"threshold"`, `"threshol_"`, 1)
	time.Sleep(10 * time.Millisecond)
	if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	s.pollNow()
	if got := s.Models().Det.Version(); got != v2 {
		t.Fatalf("corrupt checkpoint changed the live model: %s -> %s", v2, got)
	}
	if got := delta(telemetry.Name("perspectron_serve_reloads_total", "result", "rollback")); got != 1 {
		t.Fatalf("rollback counter = %d, want 1", got)
	}
	h := s.Health()
	if h.Rollbacks != 1 || h.ReloadError == "" {
		t.Fatalf("health rollbacks=%d error=%q, want the rollback surfaced", h.Rollbacks, h.ReloadError)
	}
	if h.Status != "degraded" {
		t.Fatalf("status = %q, want degraded after a rollback", h.Status)
	}

	// A subsequent good write recovers.
	time.Sleep(10 * time.Millisecond)
	if err := det.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	s.pollNow()
	if got := s.Models().Det.Version(); got != v1 {
		t.Fatalf("recovery write not picked up: %s, want %s", got, v1)
	}
	if h := s.Health(); h.ReloadError != "" {
		t.Fatalf("reload error %q survived recovery", h.ReloadError)
	}
}

func TestHealthEndpoints(t *testing.T) {
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
	// Before Run: alive but not ready.
	rr := httptest.NewRecorder()
	s.Readyz().ServeHTTP(rr, httptest.NewRequest("GET", "/readyz", nil))
	if rr.Code != 503 {
		t.Fatalf("readyz before Run = %d, want 503", rr.Code)
	}
	rr = httptest.NewRecorder()
	s.Healthz().ServeHTTP(rr, httptest.NewRequest("GET", "/healthz", nil))
	if rr.Code != 200 {
		t.Fatalf("healthz = %d, want 200", rr.Code)
	}
	var h Health
	if err := json.Unmarshal(rr.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.DetectorVersion != det.Version() || len(h.Workers) != 1 {
		t.Fatalf("healthz body = %+v", h)
	}
	if hs := s.Handlers(); hs["/healthz"] == nil || hs["/readyz"] == nil {
		t.Fatalf("Handlers() missing routes: %v", hs)
	}
	// After a completed run: drained, not ready.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Run(ctx); err != nil {
		t.Fatal(err)
	}
	rr = httptest.NewRecorder()
	s.Readyz().ServeHTTP(rr, httptest.NewRequest("GET", "/readyz", nil))
	if rr.Code != 503 {
		t.Fatalf("readyz after drain = %d, want 503", rr.Code)
	}
	rr = httptest.NewRecorder()
	s.Healthz().ServeHTTP(rr, httptest.NewRequest("GET", "/healthz", nil))
	if rr.Code != 503 {
		t.Fatalf("healthz while draining = %d, want 503", rr.Code)
	}
}

// TestShutdownLeavesNoGoroutines is the leak gate: a service that ran
// workers, suffered stalls and was drained must return the process to its
// pre-Run goroutine count.
func TestShutdownLeavesNoGoroutines(t *testing.T) {
	det, cls := testModels(t)
	before := runtime.NumGoroutine()
	s, err := New(Config{
		detector:   det,
		classifier: cls,
		Workloads: []perspectron.Workload{
			perspectron.AttackByName("spectreV1", "fr"),
			&stallProg{stallAfter: 2_000, delay: 10 * time.Millisecond, stallOps: 40},
		},
		MaxInsts:      40_000,
		MaxEpisodes:   0, // run until drained
		sampleTimeout: 60 * time.Millisecond,
		backoff:       fastBackoff(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()
	time.Sleep(2 * time.Second) // let episodes, stalls and restarts happen
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("drained run returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("drain did not complete")
	}
	// Producers unwind within their next op batch; give them a moment.
	deadline := time.After(10 * time.Second)
	for runtime.NumGoroutine() > before {
		select {
		case <-deadline:
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines: %d before, %d after drain\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		case <-time.After(100 * time.Millisecond):
		}
	}
}

func TestNewErrors(t *testing.T) {
	det, _ := testModels(t)
	if _, err := New(Config{detector: det}); err == nil {
		t.Fatalf("workload-less config accepted")
	}
	if _, err := New(Config{Workloads: []perspectron.Workload{perspectron.AttackByName("spectreV1", "fr")}}); err == nil {
		t.Fatalf("detector-less config accepted")
	}
	if _, err := New(Config{
		DetectorPath: filepath.Join(t.TempDir(), "missing.json"),
		Workloads:    []perspectron.Workload{perspectron.AttackByName("spectreV1", "fr")},
	}); err == nil {
		t.Fatalf("missing initial checkpoint accepted")
	}
	// Forensics cannot be turned off: a negative knob names its field.
	_, err := New(Config{
		detector:        det,
		Workloads:       []perspectron.Workload{perspectron.AttackByName("spectreV1", "fr")},
		AttrBenignEvery: -1,
	})
	if err == nil || !strings.Contains(err.Error(), "AttrBenignEvery") {
		t.Fatalf("negative AttrBenignEvery: err = %v, want one naming the field", err)
	}
}

// TestConfigDefaults pins every documented default: the fixed-policy
// constants and the zero Config's resolved fields (test seams included).
func TestConfigDefaults(t *testing.T) {
	if episodeTimeout != 60*time.Second ||
		classifierFloor != 0.9 || detectorFloor != 0.5 || hysteresis != 0.05 ||
		sloLatencyTarget != 50*time.Millisecond || sloLatencyBudget != 0.01 ||
		sloAlpha != 0.02 ||
		attributionK != 5 || flightSize != 256 || slowSample != 250*time.Millisecond {
		t.Fatalf("fixed-policy constant moved")
	}

	backoff := retry.DefaultPolicy()
	backoff.MaxAttempts = 0
	want := Config{
		MaxInsts:         100_000,
		PollInterval:     500 * time.Millisecond,
		LogFlushInterval: 500 * time.Millisecond,
		sampleTimeout:    2 * time.Second,
		backoff:          backoff,
		breakerThreshold: 3,
		breakerCooldown:  5 * time.Second,
	}
	var zero Config
	if got := zero.withDefaults(); !reflect.DeepEqual(got, want) {
		t.Fatalf("zero Config defaults:\n got %+v\nwant %+v", got, want)
	}
}
