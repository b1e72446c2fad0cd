package tlb

import (
	"testing"

	"perspectron/internal/stats"
)

func newTLB(t *testing.T) *TLB {
	t.Helper()
	reg := stats.NewRegistry()
	tb := New(DefaultConfig(), reg, stats.CompDTB, "dtb")
	reg.Seal()
	return tb
}

func TestMissThenHit(t *testing.T) {
	tb := newTLB(t)
	r1 := tb.Translate(0x1000, false)
	if r1.Latency != DefaultConfig().WalkLatency {
		t.Fatalf("cold translate latency = %d", r1.Latency)
	}
	r2 := tb.Translate(0x1008, false) // same page
	if r2.Latency != 1 {
		t.Fatalf("warm translate latency = %d", r2.Latency)
	}
	if tb.C.RdMisses.Value() != 1 || tb.C.RdHits.Value() != 1 {
		t.Fatalf("misses=%v hits=%v", tb.C.RdMisses.Value(), tb.C.RdHits.Value())
	}
}

func TestKernelAddressPermFault(t *testing.T) {
	tb := newTLB(t)
	r := tb.Translate(KernelBase+0x1000, false)
	if !r.PermFault || r.PageFault {
		t.Fatalf("kernel access result = %+v", r)
	}
	// The fault is deferred (Meltdown): the translation is still installed
	// and subsequent accesses also perm-fault but hit the TLB.
	r2 := tb.Translate(KernelBase+0x1000, false)
	if !r2.PermFault || r2.Latency != 1 {
		t.Fatalf("warm kernel access = %+v", r2)
	}
	if tb.C.PermFaults.Value() != 2 {
		t.Fatalf("permFaults = %v", tb.C.PermFaults.Value())
	}
}

func TestUnmappedPageFault(t *testing.T) {
	tb := newTLB(t)
	r := tb.Translate(Unmapped+0x2000, false)
	if !r.PageFault {
		t.Fatalf("unmapped access did not page fault")
	}
	if r.Latency != DefaultConfig().WalkLatency {
		t.Fatalf("unmapped latency = %d, want full walk", r.Latency)
	}
	if tb.C.PageFaults.Value() != 1 {
		t.Fatalf("pageFaults = %v", tb.C.PageFaults.Value())
	}
}

func TestWriteCounters(t *testing.T) {
	tb := newTLB(t)
	tb.Translate(0x4000, true)
	tb.Translate(0x4000, true)
	if tb.C.WrAccesses.Value() != 2 || tb.C.WrMisses.Value() != 1 || tb.C.WrHits.Value() != 1 {
		t.Fatalf("write counters: acc=%v miss=%v hit=%v",
			tb.C.WrAccesses.Value(), tb.C.WrMisses.Value(), tb.C.WrHits.Value())
	}
}

func TestFlush(t *testing.T) {
	tb := newTLB(t)
	tb.Translate(0x1000, false)
	tb.Flush()
	r := tb.Translate(0x1000, false)
	if r.Latency != DefaultConfig().WalkLatency {
		t.Fatalf("post-flush translate hit")
	}
	if tb.C.Flushes.Value() != 1 {
		t.Fatalf("flushes = %v", tb.C.Flushes.Value())
	}
}

func TestConflictEviction(t *testing.T) {
	tb := newTLB(t)
	n := uint64(DefaultConfig().Entries)
	pg := uint64(DefaultConfig().PageBytes)
	tb.Translate(0, false)
	tb.Translate(n*pg, false) // maps to the same slot
	r := tb.Translate(0, false)
	if r.Latency != DefaultConfig().WalkLatency {
		t.Fatalf("conflicting entry not evicted")
	}
}

// TestNewRejectsNonPowerOfTwo: Translate indexes by shift and mask, so a
// size that is not a power of two must fail at construction.
func TestNewRejectsNonPowerOfTwo(t *testing.T) {
	for _, mutate := range []func(*Config){
		func(c *Config) { c.Entries = 48 },
		func(c *Config) { c.PageBytes = 3000 },
		func(c *Config) { c.Entries = 0 },
	} {
		cfg := DefaultConfig()
		mutate(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg, stats.NewRegistry(), stats.CompDTB, "dtb")
		}()
	}
}
