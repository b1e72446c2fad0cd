package retry

import (
	"testing"
	"time"
)

func TestBackoffDeterministicForSeed(t *testing.T) {
	p := Policy{Base: 10 * time.Millisecond, Max: time.Second, Jitter: 0.5}
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
	p := Policy{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond}
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
	p := Policy{Base: 10 * time.Millisecond, Max: time.Second}
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
