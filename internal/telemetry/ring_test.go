package telemetry

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestRingBasics(t *testing.T) {
	r := NewRing[int](4)
	if got := r.Cap(); got != 4 {
		t.Fatalf("Cap = %d, want 4", got)
	}
	if got := r.Snapshot(); len(got) != 0 {
		t.Fatalf("empty ring snapshot = %v, want empty", got)
	}
	for i := 1; i <= 3; i++ {
		r.Push(i)
	}
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot len = %d, want 3", len(snap))
	}
	for i, v := range snap {
		if v != i+1 {
			t.Fatalf("snapshot[%d] = %v, want %d", i, v, i+1)
		}
	}
}

func TestRingWrapsOldestFirst(t *testing.T) {
	r := NewRing[int](3)
	for i := 1; i <= 7; i++ {
		r.Push(i)
	}
	if got := r.Count(); got != 7 {
		t.Fatalf("Count = %d, want 7", got)
	}
	snap := r.Snapshot()
	want := []int{5, 6, 7}
	if len(snap) != len(want) {
		t.Fatalf("snapshot len = %d, want %d", len(snap), len(want))
	}
	for i, w := range want {
		if snap[i] != w {
			t.Fatalf("snapshot[%d] = %v, want %d", i, snap[i], w)
		}
	}
}

// TestRingPushAllocatesNothing pins that Push copies into a preallocated
// slot: a struct value is stored without boxing it into an interface.
func TestRingPushAllocatesNothing(t *testing.T) {
	type rec struct {
		name  string
		score float64
		attr  []int
	}
	r := NewRing[rec](4)
	v := rec{name: "a", score: 1, attr: []int{1, 2}}
	if allocs := testing.AllocsPerRun(100, func() { r.Push(v) }); allocs != 0 {
		t.Fatalf("Push allocates %v times, want 0", allocs)
	}
}

func TestNewRingPanicsOnNonPositive(t *testing.T) {
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewRing(%d) did not panic", n)
				}
			}()
			NewRing[int](n)
		}()
	}
}

// TestRingConcurrentPushSnapshot races writers against snapshotters; under
// -race this pins that the per-slot locking leaves no data race, and the
// assertions pin that every observed entry is complete and in push order.
func TestRingConcurrentPushSnapshot(t *testing.T) {
	r := NewRing[int](8)
	const writers, perWriter = 4, 500
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := r.Snapshot()
			if len(snap) > 8 {
				t.Errorf("snapshot holds %d entries, cap 8", len(snap))
				return
			}
			for _, v := range snap {
				if v < 0 {
					t.Error("torn entry observed")
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Push(i)
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if got := r.Count(); got != writers*perWriter {
		t.Fatalf("Count = %d, want %d", got, writers*perWriter)
	}
}

func TestRingHandlerJSON(t *testing.T) {
	r := NewRing[map[string]any](2)
	r.Push(map[string]any{"trace": "a/0/1"})
	r.Push(map[string]any{"trace": "a/0/2"})
	r.Push(map[string]any{"trace": "a/0/3"})
	rec := httptest.NewRecorder()
	RingHandler(r).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/verdicts", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content-type = %q", ct)
	}
	var snap RingSnapshot[map[string]any]
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if snap.Capacity != 2 || snap.Count != 3 || len(snap.Entries) != 2 {
		t.Fatalf("snapshot = %+v", snap)
	}
	first := snap.Entries[0]
	if first["trace"] != "a/0/2" {
		t.Fatalf("oldest entry = %v, want a/0/2", first)
	}
}

// TestRingHandlerEmptyRing pins that a ring nothing was pushed into serves
// an empty entries array, not null.
func TestRingHandlerEmptyRing(t *testing.T) {
	rec := httptest.NewRecorder()
	RingHandler(NewRing[int](4)).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/verdicts", nil))
	if !strings.Contains(rec.Body.String(), `"entries": []`) {
		t.Fatalf("empty ring body lacks an empty entries array:\n%s", rec.Body.String())
	}
	var snap RingSnapshot[int]
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if snap.Capacity != 4 || snap.Count != 0 || len(snap.Entries) != 0 {
		t.Fatalf("empty ring snapshot = %+v, want capacity 4 and nothing held", snap)
	}
}

// TestLatencyBucketsPrefixFrozen pins the first twelve LatencyBuckets bounds:
// dashboards and recorded series key on these `le` labels, so the layout may
// only grow by appending.
func TestLatencyBucketsPrefixFrozen(t *testing.T) {
	frozen := []float64{1e-7, 2.5e-7, 5e-7, 1e-6, 2.5e-6, 5e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1}
	if len(LatencyBuckets) < len(frozen) {
		t.Fatalf("LatencyBuckets shrank to %d bounds; the first %d are frozen", len(LatencyBuckets), len(frozen))
	}
	for i, want := range frozen {
		if LatencyBuckets[i] != want {
			t.Fatalf("LatencyBuckets[%d] = %g, want frozen %g", i, LatencyBuckets[i], want)
		}
	}
	for i := 1; i < len(LatencyBuckets); i++ {
		if LatencyBuckets[i] <= LatencyBuckets[i-1] {
			t.Fatalf("LatencyBuckets not strictly ascending at %d: %g <= %g", i, LatencyBuckets[i], LatencyBuckets[i-1])
		}
	}
	if top := LatencyBuckets[len(LatencyBuckets)-1]; top < 30 {
		t.Fatalf("top bound %g too low for queue-wait under overload", top)
	}
}
