package stats

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestRegistryBasics(t *testing.T) {
	r := NewRegistry()
	a := r.New(CompCommit, "NonSpecStalls", "commit stalls for non-speculative ops")
	b := r.New(CompFetch, "SquashCycles", "cycles fetch spent squashed")
	if got := a.Name(); got != "commit.NonSpecStalls" {
		t.Fatalf("name = %q", got)
	}
	if a.Index() != 0 || b.Index() != 1 {
		t.Fatalf("indices = %d,%d", a.Index(), b.Index())
	}
	if r.Len() != 2 {
		t.Fatalf("len = %d", r.Len())
	}
	a.Inc()
	a.Add(2.5)
	if a.Value() != 3.5 {
		t.Fatalf("value = %v", a.Value())
	}
	c, ok := r.Lookup("fetch.SquashCycles")
	if !ok || c != b {
		t.Fatalf("lookup failed")
	}
	if _, ok := r.Lookup("nope"); ok {
		t.Fatalf("lookup of missing name succeeded")
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.New(CompIQ, "x", "")
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on duplicate counter")
		}
	}()
	r.New(CompIQ, "x", "")
}

func TestRegistrySealedPanics(t *testing.T) {
	r := NewRegistry()
	r.Seal()
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on add after seal")
		}
	}()
	r.New(CompIQ, "x", "")
}

func TestRegistryNewRaw(t *testing.T) {
	r := NewRegistry()
	c := r.NewRaw(CompBus, "tol2bus.trans_dist::ReadSharedReq", "bus read shared requests")
	if c.Name() != "tol2bus.trans_dist::ReadSharedReq" {
		t.Fatalf("raw name = %q", c.Name())
	}
	if c.Component() != CompBus {
		t.Fatalf("component = %v", c.Component())
	}
}

func TestComponentString(t *testing.T) {
	for c := Component(0); c < NumComponents; c++ {
		s := c.String()
		if s == "" || strings.HasPrefix(s, "component(") {
			t.Fatalf("component %d has no name", c)
		}
		back, err := ParseComponent(s)
		if err != nil || back != c {
			t.Fatalf("round trip of %q failed: %v %v", s, back, err)
		}
	}
	if _, err := ParseComponent("bogus"); err == nil {
		t.Fatalf("expected error for bogus component")
	}
}

func TestByComponent(t *testing.T) {
	r := NewRegistry()
	r.New(CompFetch, "a", "")
	r.New(CompDecode, "b", "")
	r.New(CompFetch, "c", "")
	got := r.ByComponent(CompFetch)
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("ByComponent = %v", got)
	}
	if r.ByComponent(CompL2) != nil {
		t.Fatalf("expected nil for empty component")
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	a := r.New(CompFetch, "a", "")
	b := r.New(CompDecode, "b", "")
	a.Add(3)
	b.Add(7)
	snap := r.Snapshot(nil)
	if snap[0] != 3 || snap[1] != 7 {
		t.Fatalf("snapshot = %v", snap)
	}
}

// collecting returns a sampler over r whose emitted vectors accumulate in
// the returned slice.
func collecting(r *Registry, interval uint64) (*Sampler, *[][]float64) {
	var got [][]float64
	return NewSampler(r, interval, func(v []float64) { got = append(got, v) }), &got
}

func TestSamplerFiresAtGranularity(t *testing.T) {
	r := NewRegistry()
	a := r.New(CompCommit, "insts", "")
	r.Seal()
	s, samples := collecting(r, 100)
	for i := 0; i < 10; i++ {
		a.Add(50)
		s.Tick(50)
	}
	if got := len(*samples); got != 5 {
		t.Fatalf("samples = %d, want 5", got)
	}
	for _, vec := range *samples {
		if vec[0] != 100 {
			t.Fatalf("delta = %v, want 100", vec[0])
		}
	}
	if s.Committed() != 500 {
		t.Fatalf("committed = %d", s.Committed())
	}
}

func TestSamplerDeltaNotCumulative(t *testing.T) {
	r := NewRegistry()
	a := r.New(CompCommit, "x", "")
	r.Seal()
	s, samples := collecting(r, 10)
	a.Add(5)
	s.Tick(10)
	a.Add(9)
	s.Tick(10)
	got := *samples
	if got[0][0] != 5 || got[1][0] != 9 {
		t.Fatalf("deltas = %v,%v; want 5,9", got[0][0], got[1][0])
	}
}

func TestSamplerFlush(t *testing.T) {
	r := NewRegistry()
	a := r.New(CompCommit, "x", "")
	r.Seal()
	s, samples := collecting(r, 100)
	a.Add(1)
	s.Tick(60)
	s.Flush(50)
	if len(*samples) != 1 {
		t.Fatalf("flush did not emit tail sample")
	}
	s2, samples2 := collecting(r, 100)
	s2.Tick(30)
	s2.Flush(50)
	if len(*samples2) != 0 {
		t.Fatalf("flush emitted sample below minInstr")
	}
}

// TestSamplerFlushIdempotent: the tail emit must advance the interval
// boundary — a second Flush, or a Flush followed by a Tick that crosses the
// old boundary, used to re-emit the same tail.
func TestSamplerFlushIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.New(CompCommit, "x", "")
	r.Seal()
	s, samples := collecting(r, 100)
	a.Add(1)
	s.Tick(60)
	s.Flush(50)
	s.Flush(50)
	if got := len(*samples); got != 1 {
		t.Fatalf("double Flush emitted %d samples, want 1", got)
	}
	// The flushed tail consumed instructions 0-60; the next full interval
	// starts there, so 100 more instructions emit exactly one more sample
	// with only the post-flush counter delta.
	a.Add(7)
	if fired := s.Tick(100); fired != 1 {
		t.Fatalf("post-flush tick fired %d times, want 1", fired)
	}
	if got := len(*samples); got != 2 {
		t.Fatalf("samples = %d, want 2", got)
	}
	if (*samples)[1][0] != 7 {
		t.Fatalf("post-flush delta = %v, want 7 (tail re-counted?)", (*samples)[1][0])
	}
}

// TestSamplerHandsOffVectors: each emitted vector belongs to the consumer —
// scribbling on it must not leak into later deltas, and the sampler keeps
// no reference that would pin it for the rest of the run.
func TestSamplerHandsOffVectors(t *testing.T) {
	r := NewRegistry()
	a := r.New(CompCommit, "x", "")
	r.Seal()
	var last []float64
	var deltas []float64
	s := NewSampler(r, 10, func(v []float64) {
		if last != nil && &last[0] == &v[0] {
			t.Fatalf("sampler reused an emitted vector")
		}
		last = v
		deltas = append(deltas, v[0])
		v[0] = -1
	})
	for i := 1; i <= 3; i++ {
		a.Add(float64(i))
		s.Tick(10)
	}
	a.Add(4)
	s.Tick(5)
	if !s.Flush(5) {
		t.Fatalf("Flush did not report the tail sample")
	}
	if s.Flush(5) {
		t.Fatalf("second Flush reported a sample")
	}
	if want := []float64{1, 2, 3, 4}; !reflect.DeepEqual(deltas, want) {
		t.Fatalf("deltas = %v, want %v", deltas, want)
	}
}

func TestSamplerMultipleFiresInOneTick(t *testing.T) {
	r := NewRegistry()
	r.New(CompCommit, "x", "")
	r.Seal()
	s, _ := collecting(r, 10)
	if fired := s.Tick(35); fired != 3 {
		t.Fatalf("fired = %d, want 3", fired)
	}
}

func TestSamplerPanics(t *testing.T) {
	r := NewRegistry()
	r.New(CompCommit, "x", "")
	func() {
		defer func() {
			if recover() == nil {
				t.Fatalf("expected panic for unsealed registry")
			}
		}()
		NewSampler(r, 10, func([]float64) {})
	}()
	r.Seal()
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for zero interval")
		}
	}()
	NewSampler(r, 0, func([]float64) {})
}

// Property: sampler deltas sum back to the cumulative counter value when the
// instruction stream is a multiple of the interval.
func TestQuickSamplerDeltasSum(t *testing.T) {
	f := func(incs []uint8) bool {
		r := NewRegistry()
		c := r.New(CompCommit, "x", "")
		r.Seal()
		s, samples := collecting(r, 7)
		var total float64
		for _, v := range incs {
			c.Add(float64(v))
			total += float64(v)
			s.Tick(7)
		}
		var sum float64
		for _, vec := range *samples {
			sum += vec[0]
		}
		return sum == total && len(*samples) == len(incs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

func TestDump(t *testing.T) {
	r := NewRegistry()
	a := r.New(CompFetch, "Insts", "instructions fetched")
	r.New(CompCommit, "zero", "never fires")
	a.Add(42)
	var buf strings.Builder
	if err := r.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "fetch.Insts") || !strings.Contains(out, "42") {
		t.Fatalf("dump missing counter:\n%s", out)
	}
	if !strings.Contains(out, "commit.zero") {
		t.Fatalf("dump omitted zero counter")
	}
	if !strings.Contains(out, "Begin Simulation Statistics") {
		t.Fatalf("dump missing frame")
	}
}

// TestView: a view reads mult times its count through Value, the registry's
// Counter handle, Snapshot, a sampler's deltas and Dump, and registers in
// order like any counter.
func TestView(t *testing.T) {
	r := NewRegistry()
	a := r.New(CompFetch, "a", "")
	var n uint64
	v := r.NewView(CompRename, "rename.RenameLookups", "lookups", &n, 2)
	r.Seal()
	c, ok := r.Lookup("rename.RenameLookups")
	if !ok || c.Index() != 1 || c.Component() != CompRename {
		t.Fatalf("view registered as %v (ok=%v)", c, ok)
	}
	var deltas [][]float64
	s := NewSampler(r, 1, func(d []float64) { deltas = append(deltas, d) })
	n = 3
	a.Inc()
	s.Tick(1)
	n = 5
	s.Tick(1)
	if v.Value() != 10 || c.Value() != 10 {
		t.Fatalf("view value %v, registry handle %v, want 10", v.Value(), c.Value())
	}
	if snap := r.Snapshot(nil); snap[1] != 10 {
		t.Fatalf("snapshot %v", snap)
	}
	if want := [][]float64{{1, 6}, {0, 4}}; !reflect.DeepEqual(deltas, want) {
		t.Fatalf("deltas %v, want %v", deltas, want)
	}
	var b strings.Builder
	if err := r.Dump(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "rename.RenameLookups") || !strings.Contains(b.String(), " 10  # lookups") {
		t.Fatalf("dump lacks the view's value:\n%s", b.String())
	}
}
