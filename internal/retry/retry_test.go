package retry

import (
	"context"
	"errors"
	"testing"
	"time"

	"perspectron/internal/telemetry"
)

func TestBackoffDeterministicForSeed(t *testing.T) {
	p := Policy{MaxAttempts: 8, Base: 10 * time.Millisecond, Max: time.Second, Factor: 2, Jitter: 0.5}
	a, b := NewBackoff(p, 42), NewBackoff(p, 42)
	for i := 0; i < 8; i++ {
		da, db := a.Next(), b.Next()
		if da != db {
			t.Fatalf("attempt %d: same seed diverged: %v vs %v", i, da, db)
		}
	}
	c := NewBackoff(p, 43)
	same := true
	a = NewBackoff(p, 42)
	for i := 0; i < 8; i++ {
		if a.Next() != c.Next() {
			same = false
		}
	}
	if same {
		t.Fatalf("different seeds produced identical jitter sequences")
	}
}

func TestBackoffGrowsAndCaps(t *testing.T) {
	p := Policy{MaxAttempts: 10, Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, Factor: 2}
	b := NewBackoff(p, 1) // Jitter 0: exact sequence
	want := []time.Duration{10, 20, 40, 80, 80, 80}
	for i, w := range want {
		if got := b.Next(); got != w*time.Millisecond {
			t.Fatalf("backoff %d = %v, want %v", i, got, w*time.Millisecond)
		}
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	p := Policy{Base: 100 * time.Millisecond, Max: 100 * time.Millisecond, Jitter: 0.5}
	b := NewBackoff(p, 7)
	for i := 0; i < 100; i++ {
		d := b.Next()
		if d < 50*time.Millisecond || d > 150*time.Millisecond {
			t.Fatalf("jittered backoff %v outside [50ms, 150ms]", d)
		}
	}
}

func TestBackoffReset(t *testing.T) {
	p := Policy{Base: 10 * time.Millisecond, Max: time.Second, Factor: 2}
	b := NewBackoff(p, 1)
	b.Next()
	b.Next()
	if b.attempt != 2 {
		t.Fatalf("attempt = %d, want 2", b.attempt)
	}
	b.Reset()
	if got := b.Next(); got != 10*time.Millisecond {
		t.Fatalf("after Reset first backoff = %v, want 10ms", got)
	}
}

func TestDoRetriesUntilSuccess(t *testing.T) {
	p := Policy{MaxAttempts: 5, Base: time.Millisecond, Max: time.Millisecond}
	var seen []int
	attempts, err := Do(context.Background(), "test", p, 1, func(attempt int) error {
		seen = append(seen, attempt)
		if attempt < 2 {
			return errors.New("boom")
		}
		return nil
	})
	if err != nil || attempts != 3 {
		t.Fatalf("Do = (%d, %v), want (3, nil)", attempts, err)
	}
	if len(seen) != 3 || seen[0] != 0 || seen[2] != 2 {
		t.Fatalf("attempt numbers = %v, want [0 1 2]", seen)
	}
}

func TestDoGivesUp(t *testing.T) {
	p := Policy{MaxAttempts: 3, Base: time.Millisecond, Max: time.Millisecond}
	boom := errors.New("boom")
	attempts, err := Do(context.Background(), "test", p, 1, func(int) error { return boom })
	if !errors.Is(err, boom) || attempts != 3 {
		t.Fatalf("Do = (%d, %v), want (3, boom)", attempts, err)
	}
}

func TestDoStopsOnCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	attempts, err := Do(ctx, "test", Policy{MaxAttempts: 5}, 1, func(int) error {
		t.Fatal("fn ran under a cancelled context")
		return nil
	})
	if attempts != 0 || err != nil {
		t.Fatalf("Do = (%d, %v), want (0, nil)", attempts, err)
	}
}

func TestDoCancelDuringBackoff(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := Policy{MaxAttempts: 10, Base: 10 * time.Second, Max: 10 * time.Second}
	boom := errors.New("boom")
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	attempts, err := Do(ctx, "test", p, 1, func(int) error { return boom })
	if attempts != 1 || !errors.Is(err, boom) {
		t.Fatalf("Do = (%d, %v), want (1, boom)", attempts, err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("cancel did not cut the backoff sleep short")
	}
}

func TestDoRecordsTelemetry(t *testing.T) {
	reg := telemetry.Get()
	before := reg.CounterValue(telemetry.Name("perspectron_retry_attempts_total", "op", "unit"))
	giveups := reg.CounterValue(telemetry.Name("perspectron_retry_giveups_total", "op", "unit"))
	p := Policy{MaxAttempts: 2, Base: time.Millisecond, Max: time.Millisecond}
	Do(context.Background(), "unit", p, 1, func(int) error { return errors.New("x") })
	if got := reg.CounterValue(telemetry.Name("perspectron_retry_attempts_total", "op", "unit")); got != before+2 {
		t.Fatalf("attempts counter = %d, want %d", got, before+2)
	}
	if got := reg.CounterValue(telemetry.Name("perspectron_retry_giveups_total", "op", "unit")); got != giveups+1 {
		t.Fatalf("giveup not recorded")
	}
}
