package sim

import (
	"fmt"
	"reflect"
	"testing"

	"perspectron/internal/cache"
	"perspectron/internal/isa"
	"perspectron/internal/pipeline"
	"perspectron/internal/stats"
)

// countingStream replays ops and counts how many it has handed out, and
// whether it has ended: the stepped-op count seen from outside the
// pipeline.
type countingStream struct {
	ops    []isa.Op
	i      int
	ended  bool
	handed uint64
}

func (s *countingStream) Next() (*isa.Op, bool) {
	if s.i >= len(s.ops) {
		s.ended = true
		return nil, false
	}
	s.i++
	s.handed++
	return &s.ops[s.i-1], true
}

// completedSteps is how many Steps have returned: every op handed out,
// less the one being stepped while the stream is still running.
func (s *countingStream) completedSteps() uint64 {
	if s.ended || s.handed == 0 {
		return s.handed
	}
	return s.handed - 1
}

// lockstepOracle is what per-op increments would have counted, taken from
// outside the views: ops handed out by the stream, ops that reached
// execute (the plain per-class issue counters), instructions committed and
// base-clock cycles (one per Width completed Steps).
type lockstepOracle struct {
	m      *Machine
	s      *countingStream
	commit func() uint64
}

func (o lockstepOracle) stepped() uint64 { return o.s.handed }

func (o lockstepOracle) executed() uint64 {
	var n float64
	for _, c := range o.m.Pipe.C.IQ.IssuedClass {
		n += c.Value()
	}
	return uint64(n)
}

func (o lockstepOracle) cycles() uint64 {
	return o.s.completedSteps() / uint64(pipeline.Width)
}

// viewCase is one lockstep counter: its handle, its registered name and
// the multiple of an oracle count it must read.
type viewCase struct {
	v     *stats.View
	name  string
	count func() uint64
	mult  uint64
}

func viewCases(c *pipeline.Counters, o lockstepOracle) []viewCase {
	return []viewCase{
		{c.Fetch.Insts, "fetch.Insts", o.stepped, 1},
		{c.Decode.DecodedInsts, "decode.DecodedInsts", o.stepped, 1},
		{c.Rename.RenamedInsts, "rename.RenamedInsts", o.stepped, 1},
		{c.Rename.RenameLookups, "rename.RenameLookups", o.stepped, 2},
		{c.Rename.RenamedOperands, "rename.RenamedOperands", o.stepped, 2},
		{c.IQ.InstsAdded, "iq.iqInstsAdded", o.executed, 1},
		{c.IQ.InstsIssued, "iq.iqInstsIssued", o.executed, 1},
		{c.IEW.ExecutedInsts, "iew.iewExecutedInsts", o.executed, 1},
		{c.Commit.CommittedInsts, "commit.committedInsts", o.commit, 1},
		{c.Commit.CommittedOps, "commit.committedOps", o.commit, 1},
		{c.Commit.CommitEligible, "commit.commitEligible", o.commit, 1},
		{c.Rename.CommittedMaps, "rename.CommittedMaps", o.commit, 1},
		{c.ROB.Reads, "rob.rob_reads", o.commit, 1},
		{c.Fetch.Cycles, "fetch.Cycles", o.cycles, 1},
		{c.Fetch.RunCycles, "fetch.RunCycles", o.cycles, 1},
		{c.Decode.RunCycles, "decode.RunCycles", o.cycles, 1},
		{c.Rename.RunCycles, "rename.RunCycles", o.cycles, 1},
	}
}

// checkViews asserts, for every lockstep counter, that Value() equals its
// Snapshot entry and that both equal the oracle's per-op count.
func checkViews(t *testing.T, m *Machine, cases []viewCase, snap []float64, where string) {
	t.Helper()
	m.Reg.Snapshot(snap)
	for _, vc := range cases {
		c, ok := m.Reg.Lookup(vc.name)
		if !ok {
			t.Fatalf("%s: no counter %s", where, vc.name)
		}
		want := float64(vc.count() * vc.mult)
		if got, viaReg, inSnap := vc.v.Value(), c.Value(), snap[c.Index()]; got != want || viaReg != want || inSnap != want {
			t.Fatalf("%s: %s reads %v (registry %v, snapshot %v), per-op count %v",
				where, vc.name, got, viaReg, inSnap, want)
		}
	}
}

// TestLockstepViewsMatchPerOpCounts replays the recorded SpectreV1+mcf ops
// and checks the 17 lockstep counters against per-op counts at every
// sample, and at every commit of a bare pipeline run — including the
// commits inside rename's retireForSpace, which fire before the op being
// renamed executes, so the executed count lags the stepped count there.
func TestLockstepViewsMatchPerOpCounts(t *testing.T) {
	ops := allocOps()

	t.Run("OnSample", func(t *testing.T) {
		m := NewMachine()
		s := &countingStream{ops: append([]isa.Op(nil), ops...)}
		cases := viewCases(&m.Pipe.C, lockstepOracle{m: m, s: s, commit: m.Pipe.Committed})
		snap := make([]float64, m.Reg.Len())
		fired := 0
		m.OnSample = func(idx int, _ []float64) {
			if want := uint64(idx+1) * 10_000; m.Pipe.Committed() != want {
				t.Fatalf("sample %d fired at %d commits, want %d", idx, m.Pipe.Committed(), want)
			}
			checkViews(t, m, cases, snap, "sample")
			fired++
		}
		m.RunStream(s, 0, 10_000, func(int, []float64) bool { return true })
		if fired < 9 {
			t.Fatalf("%d samples fired, want at least 9", fired)
		}
		checkViews(t, m, cases, snap, "end of run")
	})

	t.Run("EveryCommit", func(t *testing.T) {
		m := NewMachine()
		s := &countingStream{ops: append([]isa.Op(nil), ops...)}
		var commits uint64
		o := lockstepOracle{m: m, s: s, commit: func() uint64 { return commits }}
		cases := viewCases(&m.Pipe.C, o)
		snap := make([]float64, m.Reg.Len())
		lagging := 0
		// An interval-1 sampler fires at every commit.
		m.Pipe.Sampler = stats.NewSampler(m.Reg, 1, func([]float64) {
			commits++
			if !s.ended && o.executed() == o.stepped()-1 {
				lagging++ // the op being stepped has not executed yet
			}
			checkViews(t, m, cases, snap, "commit")
		})
		m.Pipe.Run(s, 0)
		if commits != uint64(len(ops)) {
			t.Fatalf("%d commits, want %d", commits, len(ops))
		}
		if lagging == 0 {
			t.Fatal("no commit fired before its op executed; the retireForSpace case went unchecked")
		}
		t.Logf("%d commits, %d before the stepped op executed", commits, lagging)
	})
}

// TestMemoryViewsMatchPlainCounters replays the recorded SpectreV1+mcf ops
// and checks, at every sample, the cache and bus counters that are views
// against the plain per-event counters they move with: a cache's overall
// accesses and hits (and data-array accesses, one per hit) against the sums
// over its request types, and a bus's packet count, snoop requests and
// request-layer occupancy against its transaction distribution.
func TestMemoryViewsMatchPlainCounters(t *testing.T) {
	m := NewMachine()
	snap := make([]float64, m.Reg.Len())
	check := func(where, name string, v *stats.View, want float64) {
		t.Helper()
		c, ok := m.Reg.Lookup(name)
		if !ok {
			t.Fatalf("%s: no counter %s", where, name)
		}
		if v.Value() != want || c.Value() != want || snap[c.Index()] != want {
			t.Fatalf("%s: %s reads %v (registry %v, snapshot %v), per-event count %v",
				where, name, v.Value(), c.Value(), snap[c.Index()], want)
		}
	}
	caches := map[string]*cache.Cache{"icache": m.Hier.L1I, "dcache": m.Hier.L1D, "l2": m.Hier.L2}
	samples := 0
	m.OnSample = func(idx int, _ []float64) {
		where := fmt.Sprintf("sample %d", idx)
		m.Reg.Snapshot(snap)
		for name, c := range caches {
			var accesses, hits float64
			for _, rs := range []*cache.ReqStats{&c.C.ReadReq, &c.C.WriteReq, &c.C.ReadSharedReq, &c.C.ReadExReq} {
				accesses += rs.Accesses.Value()
				hits += rs.Hits.Value()
			}
			check(where, name+".overall_accesses", c.C.OverallAccesses, accesses)
			check(where, name+".overall_hits", c.C.OverallHits, hits)
			check(where, name+".tags.data_accesses", c.C.DataAccesses, hits)
		}
		for _, b := range []*cache.Bus{m.Hier.ToL2Bus, m.Hier.MemBus} {
			var pkts float64
			for _, c := range b.Trans {
				pkts += c.Value()
			}
			check(where, b.Name+".pkt_count", b.PktCount, pkts)
			check(where, b.Name+".snoop_filter.tot_requests", b.SnoopRequests, pkts)
			check(where, b.Name+".reqLayer0.occupancy", b.ReqLayerBusy, pkts*float64(b.Latency()))
		}
		samples++
	}
	m.RunStream(isa.NewSliceStream(allocOps()), 0, 10_000, func(int, []float64) bool { return true })
	if samples < 9 {
		t.Fatalf("%d samples checked, want at least 9", samples)
	}
}

// TestViewsHaveNoIncrement: a lockstep counter is a *stats.View, which has
// no Inc or Add, so the simulator cannot increment one. Exactly the 17
// pipeline lockstep counters are views, and three per cache and per bus.
func TestViewsHaveNoIncrement(t *testing.T) {
	vt := reflect.TypeFor[*stats.View]()
	for _, name := range []string{"Inc", "Add"} {
		if _, ok := vt.MethodByName(name); ok {
			t.Fatalf("*stats.View has a %s method", name)
		}
	}
	// views counts the *stats.View fields of a struct, one level of
	// nested structs deep (the pipeline's per-stage counter groups).
	views := func(v reflect.Value) int {
		n := 0
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			switch {
			case f.Type() == vt:
				n++
			case f.Kind() == reflect.Struct:
				for j := 0; j < f.NumField(); j++ {
					if f.Field(j).Type() == vt {
						n++
					}
				}
			}
		}
		return n
	}
	m := NewMachine()
	if n := views(reflect.ValueOf(m.Pipe.C)); n != 17 {
		t.Fatalf("%d pipeline counters are views, want 17", n)
	}
	for _, c := range []*cache.Cache{m.Hier.L1I, m.Hier.L1D, m.Hier.L2} {
		if n := views(reflect.ValueOf(c.C)); n != 3 {
			t.Fatalf("%d counters of a cache are views, want 3", n)
		}
	}
	for _, b := range []*cache.Bus{m.Hier.ToL2Bus, m.Hier.MemBus} {
		if n := views(reflect.ValueOf(*b)); n != 3 {
			t.Fatalf("%d counters of %s are views, want 3", n, b.Name)
		}
	}
}
