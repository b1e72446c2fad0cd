package trace

import (
	"context"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"perspectron/internal/isa"
	"perspectron/internal/workload"
	"perspectron/internal/workload/benign"
)

// plainStream emits computational ops forever (or up to limit when > 0).
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

// panicProg panics after emitting `after` ops on every stream, counting
// the streams it was asked for.
type panicProg struct {
	after    uint64
	attempts *int32
}

func (p *panicProg) Info() workload.Info {
	return workload.Info{Name: "panicker", Label: workload.Benign, Category: "test"}
}

func (p *panicProg) Stream(_ *rand.Rand) isa.Stream {
	atomic.AddInt32(p.attempts, 1)
	return &panicStream{after: p.after}
}

type panicStream struct {
	n     uint64
	after uint64
	op    isa.Op
}

func (s *panicStream) Next() (*isa.Op, bool) {
	s.n++
	if s.n > s.after {
		panic("workload bug")
	}
	s.op = isa.Op{Kind: isa.KindPlain, Class: isa.IntAlu, PC: 0x4000 + 4*s.n}
	return &s.op, true
}

// TestCollectRecoversFromPanickingWorkload: a panicking run is streamed
// once and dropped, and the healthy run beside it survives.
func TestCollectRecoversFromPanickingWorkload(t *testing.T) {
	var attempts int32
	progs := []workload.Program{
		benign.All()[0],
		&panicProg{after: 5_000, attempts: &attempts},
	}
	cfg := CollectConfig{MaxInsts: 30_000, Interval: 10_000, Seed: 1, Runs: 1}
	ds := Collect(context.Background(), progs, cfg)[0]
	if len(ds.Samples) == 0 {
		t.Fatalf("healthy workload produced no samples alongside a panicking one")
	}
	for _, s := range ds.Samples {
		if s.Program == "panicker" {
			t.Fatalf("panicking run leaked samples into the dataset")
		}
	}
	if len(ds.Dropped) != 1 || !strings.Contains(ds.Dropped[0], "panicker#0") ||
		!strings.Contains(ds.Dropped[0], "panicked") {
		t.Fatalf("dropped record = %v, want one panicker entry", ds.Dropped)
	}
	if got := atomic.LoadInt32(&attempts); got != 1 {
		t.Fatalf("panicking workload streamed %d times, want 1", got)
	}
}

// endless is a benign-looking program that never terminates on its own.
type endless struct{}

func (endless) Info() workload.Info {
	return workload.Info{Name: "endless", Label: workload.Benign, Category: "test"}
}
func (endless) Stream(_ *rand.Rand) isa.Stream { return &plainStream{} }

// TestCollectCtxCutsRunawayRun: a context that ends mid-run cuts the run
// off at its next fetch, and the samples it produced are kept.
func TestCollectCtxCutsRunawayRun(t *testing.T) {
	cfg := CollectConfig{
		MaxInsts: 1 << 62, // effectively unbounded: only the context stops it
		Interval: 10_000,
		Seed:     1,
		Runs:     1,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	ds := Collect(ctx, []workload.Program{endless{}}, cfg)[0]
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("the context did not bound the run (%v elapsed)", elapsed)
	}
	// The run was truncated, not discarded: its partial samples survive.
	if len(ds.Samples) == 0 || len(ds.Dropped) != 0 {
		t.Fatalf("cut-off run kept %d samples, dropped %v; want samples and no drop", len(ds.Samples), ds.Dropped)
	}
}

func TestCollectCtxCancelStopsScheduling(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: every run must be dropped
	progs := []workload.Program{benign.All()[0], benign.All()[1]}
	ds := Collect(ctx, progs, CollectConfig{MaxInsts: 30_000, Interval: 10_000, Seed: 1, Runs: 2})[0]
	if len(ds.Samples) != 0 {
		t.Fatalf("cancelled collection still produced %d samples", len(ds.Samples))
	}
	if len(ds.Dropped) != 4 {
		t.Fatalf("dropped %d runs, want all 4: %v", len(ds.Dropped), ds.Dropped)
	}
}

func TestFilterCarriesDropped(t *testing.T) {
	ds := &Dataset{Dropped: []string{"x#0: run panicked"}}
	if got := ds.Filter(func(*Sample) bool { return true }); len(got.Dropped) != 1 {
		t.Fatalf("Filter lost the Dropped record")
	}
}
