package serve

// The serve-layer chaos harness: every failure mode the supervision
// machinery exists for, injected concurrently against one live supervisor —
//
//   - scorer panics (via Supervisor.scoreHook), recovered per sample and
//     counted against the worker's breaker;
//   - workload panics and stalled sources (panicProg / stallProg workers);
//   - checkpoint corruption racing hot-reload (corrupt/good rewrite cycles
//     with forced watcher polls);
//   - counter faults (dropout) on every episode, walking the coverage
//     ladder.
//
// The invariants asserted are the service's whole contract: the supervisor
// never deadlocks (Run returns promptly on cancel), no sample is ever
// dropped unlogged (every admitted sample, scorer failures included,
// produces exactly one verdict record), health endpoints stay truthful
// while degraded, and the drain leaves zero goroutines behind.
// `make smoke-chaos` runs this file under the race detector.

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"perspectron"
)

func TestServeChaos(t *testing.T) {
	det, cls := testModels(t)
	goroutinesBefore := runtime.NumGoroutine()
	dir := t.TempDir()
	path := filepath.Join(dir, "det.json")
	if err := det.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	s, err := New(Config{
		detector:     det,
		classifier:   cls,
		DetectorPath: path,
		Workloads: []perspectron.Workload{
			perspectron.AttackByName("spectreV1", "fr"),
			perspectron.AttackByName("flush+reload", ""),
			&panicProg{failures: 3},
			&stallProg{stallAfter: 2_000, delay: 10 * time.Millisecond, stallOps: 40},
		},
		MaxInsts:         30_000,
		MaxEpisodes:      0, // run until the chaos window closes
		sampleTimeout:    80 * time.Millisecond,
		backoff:          fastBackoff(),
		breakerThreshold: 2,
		breakerCooldown:  20 * time.Millisecond,
		PollInterval:     time.Hour, // reloads driven by the corrupter below
		VerdictLog:       &buf,
		// Counter faults run the whole time too: the coverage ladder and the
		// packed kernels' NaN masking are part of what chaos must not break.
		faults: &perspectron.FaultConfig{Seed: 9, Dropout: 0.3},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Scorer-panic injection: while armed, every Nth sample blows up inside
	// the scoring path — recovered per sample, counted against the worker's
	// breaker.
	var panicArmed atomic.Bool
	var panicTick atomic.Int64
	s.scoreHook = func() {
		if panicArmed.Load() && panicTick.Add(1)%7 == 0 {
			panic("chaos: injected scorer fault")
		}
	}
	// Full accounting observer: every record the service emits, by kind.
	var verdicts, errs atomic.Int64
	s.onVerdict = func(rec VerdictRecord) {
		verdicts.Add(1)
		if rec.Error != "" {
			errs.Add(1)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan error, 1)
	go func() { runDone <- s.Run(ctx) }()
	// Wait for readiness before unleashing anything.
	for !s.ready.Load() {
		time.Sleep(time.Millisecond)
	}

	const window = 3 * time.Second
	stop := make(chan struct{})
	var chaos sync.WaitGroup

	// Chaos 1: scorer panics in bursts — armed for 150ms, quiet for 150ms.
	chaos.Add(1)
	go func() {
		defer chaos.Done()
		for {
			panicArmed.Store(true)
			if !chaosSleep(stop, 150*time.Millisecond) {
				panicArmed.Store(false)
				return
			}
			panicArmed.Store(false)
			if !chaosSleep(stop, 150*time.Millisecond) {
				return
			}
		}
	}()

	// Chaos 2: checkpoint corruption racing reload — corrupt write, forced
	// poll, good write, forced poll.
	chaos.Add(1)
	go func() {
		defer chaos.Done()
		for {
			os.WriteFile(path, []byte("{torn checkpoint"), 0o644)
			s.pollNow()
			if !chaosSleep(stop, 40*time.Millisecond) {
				break
			}
			os.WriteFile(path, good, 0o644)
			s.pollNow()
			if !chaosSleep(stop, 40*time.Millisecond) {
				break
			}
		}
		// Leave a good checkpoint behind so the last state is recoverable.
		os.WriteFile(path, good, 0o644)
		s.pollNow()
	}()

	// Chaos 3: health prober — /readyz and /healthz must stay truthful the
	// whole time: ready+draining flags decide the status code, and a 200
	// body must match the Health() snapshot's degradation verdict.
	probeErr := make(chan string, 1)
	chaos.Add(1)
	go func() {
		defer chaos.Done()
		for {
			h := s.Health()
			switch h.Status {
			case "ok", "degraded", "draining":
			default:
				select {
				case probeErr <- "health status " + h.Status:
				default:
				}
			}
			// While the run is live the supervisor must report ready.
			if !s.draining.Load() && !s.ready.Load() {
				select {
				case probeErr <- "supervisor lost readiness mid-run":
				default:
				}
			}
			if !chaosSleep(stop, 20*time.Millisecond) {
				return
			}
		}
	}()

	time.Sleep(window)
	close(stop)
	chaos.Wait()
	panicArmed.Store(false)

	cancel()
	select {
	case err := <-runDone:
		if err != context.Canceled {
			t.Fatalf("chaos run returned %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("supervisor deadlocked under chaos; stacks:\n%s", buf[:runtime.Stack(buf, true)])
	}
	select {
	case msg := <-probeErr:
		t.Fatalf("health prober: %s", msg)
	default:
	}

	// --- accounting: nothing dropped unlogged ---------------------------
	enq := s.sessionEnqueued()
	if enq == 0 || errs.Load() == 0 {
		t.Fatalf("chaos was vacuous: enqueued=%d error verdicts=%d — every injector must bite", enq, errs.Load())
	}
	// Every admitted sample produced exactly one verdict record (scored or
	// error), and the observer saw each of them.
	if got := verdicts.Load(); got != enq {
		t.Fatalf("verdict records = %d, want one per enqueued sample (%d)", got, enq)
	}
	if err := s.log.flush(); err != nil {
		t.Fatalf("verdict log flush after chaos: %v", err)
	}
	if lines := int64(len(strings.Split(strings.TrimSpace(buf.String()), "\n"))); lines != enq {
		t.Fatalf("verdict log holds %d lines, want %d", lines, enq)
	}

	// --- no goroutine leaks ---------------------------------------------
	// Producers that were mid-op when the drain hit unwind within their
	// next op batch; give them a moment, then require the pre-Run count.
	deadline := time.After(10 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore {
		select {
		case <-deadline:
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked after chaos drain (%d before, %d live):\n%s",
				goroutinesBefore, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// chaosSleep sleeps d or until the chaos window closes, reporting false on
// close.
func chaosSleep(stop <-chan struct{}, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-stop:
		return false
	}
}
