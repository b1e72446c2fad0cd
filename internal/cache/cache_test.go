package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"perspectron/internal/stats"
	"perspectron/internal/tlb"
)

// fakeMem is a fixed-latency memory backend.
type fakeMem struct {
	lat      uint64
	accesses int
	writes   int
}

func (m *fakeMem) Access(addr uint64, write bool, cycle uint64) uint64 {
	m.accesses++
	if write {
		m.writes++
	}
	return m.lat
}

func newTestCache(t *testing.T) *Cache {
	t.Helper()
	reg := stats.NewRegistry()
	c := New(L1DConfig(), reg)
	c.SetBelow(func(addr uint64, write, shared bool, cycle uint64) uint64 { return 100 })
	reg.Seal()
	return c
}

func TestNewRejectsNonPowerOfTwoSets(t *testing.T) {
	cfg := L1DConfig()
	cfg.Ways = 3 // 1,024 lines over 3 ways: 341 sets
	defer func() {
		if recover() == nil {
			t.Fatalf("New accepted %d sets", cfg.SizeBytes/cfg.LineBytes/cfg.Ways)
		}
	}()
	New(cfg, stats.NewRegistry())
}

func TestCacheMissThenHit(t *testing.T) {
	c := newTestCache(t)
	lat1 := c.Access(0x1000, false, false, 0)
	if lat1 < 100 {
		t.Fatalf("miss latency = %d, want >= 100", lat1)
	}
	lat2 := c.Access(0x1000, false, false, 1000)
	if lat2 != 2 {
		t.Fatalf("hit latency = %d, want 2", lat2)
	}
	if c.C.ReadReq.Misses.Value() != 1 || c.C.ReadReq.Hits.Value() != 1 {
		t.Fatalf("miss/hit counters = %v/%v", c.C.ReadReq.Misses.Value(), c.C.ReadReq.Hits.Value())
	}
}

func TestCacheSameLineSameSet(t *testing.T) {
	c := newTestCache(t)
	c.Access(0x1000, false, false, 0)
	// Same 64B line: must hit.
	if lat := c.Access(0x103f, false, false, 1000); lat != 2 {
		t.Fatalf("same-line access missed (lat=%d)", lat)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	reg := stats.NewRegistry()
	cfg := L1DConfig()
	c := New(cfg, reg)
	c.SetBelow(func(addr uint64, write, shared bool, cycle uint64) uint64 { return 100 })
	var evicted []uint64
	c.SetEvict(func(addr uint64, dirty bool, cycle uint64) { evicted = append(evicted, addr) })
	reg.Seal()

	sets := c.Sets()
	lb := uint64(cfg.LineBytes)
	// Fill one set completely, then one more: the first line must be the
	// LRU victim.
	for i := 0; i <= cfg.Ways; i++ {
		addr := uint64(i) * uint64(sets) * lb // all map to set 0
		c.Access(addr, false, false, uint64(i*1000))
	}
	if len(evicted) != 1 {
		t.Fatalf("evictions = %d, want 1", len(evicted))
	}
	if evicted[0] != 0 {
		t.Fatalf("victim = %#x, want 0 (LRU)", evicted[0])
	}
	if c.C.WritebacksClean.Value() != 1 {
		t.Fatalf("clean writebacks = %v", c.C.WritebacksClean.Value())
	}
}

func TestCacheDirtyEviction(t *testing.T) {
	reg := stats.NewRegistry()
	cfg := L1DConfig()
	c := New(cfg, reg)
	c.SetBelow(func(addr uint64, write, shared bool, cycle uint64) uint64 { return 100 })
	dirtyEvicts := 0
	c.SetEvict(func(addr uint64, dirty bool, cycle uint64) {
		if dirty {
			dirtyEvicts++
		}
	})
	reg.Seal()
	sets := uint64(c.Sets())
	lb := uint64(cfg.LineBytes)
	c.Access(0, true, false, 0) // dirty line in set 0
	for i := 1; i <= cfg.Ways; i++ {
		c.Access(uint64(i)*sets*lb, false, false, uint64(i*1000))
	}
	if dirtyEvicts != 1 || c.C.WritebacksDirty.Value() != 1 {
		t.Fatalf("dirty evictions = %d / %v", dirtyEvicts, c.C.WritebacksDirty.Value())
	}
}

func TestFlushPresentVsAbsent(t *testing.T) {
	c := newTestCache(t)
	c.Access(0x2000, false, false, 0)
	present, latP := c.Flush(0x2000, 100)
	if !present {
		t.Fatalf("flush of cached line reported absent")
	}
	absent, latA := c.Flush(0x2000, 200)
	if absent {
		t.Fatalf("flush of flushed line reported present")
	}
	if latP <= latA {
		t.Fatalf("flush timing channel inverted: present=%d absent=%d", latP, latA)
	}
	if c.C.FlushHits.Value() != 1 || c.C.FlushMisses.Value() != 1 {
		t.Fatalf("flush counters %v/%v", c.C.FlushHits.Value(), c.C.FlushMisses.Value())
	}
	if c.Present(0x2000) {
		t.Fatalf("line still present after flush")
	}
}

func TestFlushDirtyWritesBack(t *testing.T) {
	c := newTestCache(t)
	c.Access(0x3000, true, false, 0)
	_, lat := c.Flush(0x3000, 10)
	if c.C.WritebacksDirty.Value() != 1 {
		t.Fatalf("dirty flush did not write back")
	}
	if lat < 4 {
		t.Fatalf("dirty flush latency %d too small", lat)
	}
}

func TestMSHRBlocking(t *testing.T) {
	reg := stats.NewRegistry()
	cfg := L1DConfig()
	cfg.MSHRs = 2
	c := New(cfg, reg)
	c.SetBelow(func(addr uint64, write, shared bool, cycle uint64) uint64 { return 500 })
	reg.Seal()
	// Three misses at the same cycle: third must stall for an MSHR.
	c.Access(0x10000, false, false, 0)
	c.Access(0x20000, false, false, 0)
	c.Access(0x30000, false, false, 0)
	if c.C.BlockedNoMSHRs.Value() == 0 {
		t.Fatalf("no MSHR blocking recorded")
	}
	if c.MSHROccupancy(0) != 2 {
		t.Fatalf("occupancy = %d, want 2", c.MSHROccupancy(0))
	}
}

func TestReadLFB(t *testing.T) {
	c := newTestCache(t)
	if c.ReadLFB(0) {
		t.Fatalf("LFB forward with no outstanding fills")
	}
	c.Access(0x40000, false, false, 0) // outstanding miss
	if !c.ReadLFB(1) {
		t.Fatalf("LFB read did not forward with in-flight miss")
	}
	if c.C.LFBReads.Value() != 2 || c.C.LFBForward.Value() != 1 {
		t.Fatalf("LFB counters %v/%v", c.C.LFBReads.Value(), c.C.LFBForward.Value())
	}
}

func TestSharedAccessUsesReadShared(t *testing.T) {
	c := newTestCache(t)
	c.Access(0x5000, false, true, 0)
	if c.C.ReadSharedReq.Misses.Value() != 1 {
		t.Fatalf("shared read not counted as ReadSharedReq")
	}
	if c.C.ReadReq.Misses.Value() != 0 {
		t.Fatalf("shared read leaked into ReadReq")
	}
}

func TestBusTransactionDistribution(t *testing.T) {
	reg := stats.NewRegistry()
	b := NewBus("tol2bus", 1, 64, reg)
	reg.Seal()
	b.Send(TransReadSharedReq, 0x1000, 64)
	if b.Trans[TransReadSharedReq].Value() != 1 {
		t.Fatalf("ReadSharedReq not counted")
	}
	if b.Trans[TransReadResp].Value() != 1 {
		t.Fatalf("paired ReadResp not counted")
	}
	b.Send(TransCleanEvict, 0x2000, 0)
	if b.Trans[TransCleanEvict].Value() != 1 {
		t.Fatalf("CleanEvict not counted")
	}
	if b.PktCount.Value() != 3 {
		t.Fatalf("pkt count = %v", b.PktCount.Value())
	}
}

func TestBusSnoopFilter(t *testing.T) {
	reg := stats.NewRegistry()
	b := NewBus("membus", 2, 64, reg)
	reg.Seal()
	b.Send(TransReadReq, 0x1000, 64)
	hits0 := b.SnoopHits.Value()
	b.Send(TransReadReq, 0x1000, 64) // same line again
	if b.SnoopHits.Value() <= hits0 {
		t.Fatalf("repeat request did not hit snoop filter")
	}
}

func TestTransTypeString(t *testing.T) {
	if TransCleanEvict.String() != "CleanEvict" {
		t.Fatalf("name = %q", TransCleanEvict.String())
	}
	if TransType(99).String() != "unknown" {
		t.Fatalf("out-of-range trans type name")
	}
}

func TestHierarchyEndToEnd(t *testing.T) {
	reg := stats.NewRegistry()
	mem := &fakeMem{lat: 200}
	h := NewHierarchy(reg, mem)
	reg.Seal()

	// Cold read goes all the way to memory.
	lat := h.ReadData(0x100000, false, 0)
	if mem.accesses != 1 {
		t.Fatalf("memory accesses = %d", mem.accesses)
	}
	if lat < 200 {
		t.Fatalf("cold read latency %d < memory latency", lat)
	}
	// Warm read hits L1.
	if lat := h.ReadData(0x100000, false, 1000); lat != 2 {
		t.Fatalf("warm latency = %d", lat)
	}
	// Flush then read: L1 and L2 both miss again.
	h.Flush(0x100000, 2000)
	if h.L2.Present(0x100000) {
		t.Fatalf("flush did not propagate to L2")
	}
	h.ReadData(0x100000, false, 3000)
	if mem.accesses != 2 {
		t.Fatalf("post-flush read did not reach memory (%d)", mem.accesses)
	}
}

func TestHierarchySharedReadShowsOnBus(t *testing.T) {
	reg := stats.NewRegistry()
	h := NewHierarchy(reg, &fakeMem{lat: 100})
	reg.Seal()
	h.ReadData(0x200000, true, 0)
	if h.ToL2Bus.Trans[TransReadSharedReq].Value() != 1 {
		t.Fatalf("ReadSharedReq not on tol2bus")
	}
	if h.MemBus.Trans[TransReadSharedReq].Value() != 1 {
		t.Fatalf("ReadSharedReq not on membus")
	}
}

func TestHierarchyCleanEvictOnBus(t *testing.T) {
	reg := stats.NewRegistry()
	h := NewHierarchy(reg, &fakeMem{lat: 100})
	reg.Seal()
	// Prime one L1D set past associativity with clean lines.
	sets := uint64(h.L1D.Sets())
	lb := uint64(h.L1D.LineBytes())
	for i := 0; i <= h.L1D.Ways(); i++ {
		h.ReadData(uint64(i)*sets*lb, false, uint64(i)*1000)
	}
	if h.ToL2Bus.Trans[TransCleanEvict].Value() == 0 {
		t.Fatalf("priming produced no CleanEvict transactions")
	}
}

func TestHierarchyInstFetch(t *testing.T) {
	reg := stats.NewRegistry()
	h := NewHierarchy(reg, &fakeMem{lat: 100})
	reg.Seal()
	h.FetchInst(0x400000, 0)
	if h.L1I.C.ReadReq.Misses.Value() != 1 {
		t.Fatalf("icache miss not counted")
	}
	if lat := h.FetchInst(0x400000, 100); lat != 2 {
		t.Fatalf("icache warm fetch latency = %d", lat)
	}
}

// Property: hits + misses == accesses for any access stream, per request
// class and overall.
func TestQuickHitMissConservation(t *testing.T) {
	f := func(addrs []uint16, writes []bool) bool {
		reg := stats.NewRegistry()
		c := New(L1DConfig(), reg)
		c.SetBelow(func(addr uint64, write, shared bool, cycle uint64) uint64 { return 50 })
		reg.Seal()
		n := len(addrs)
		if len(writes) < n {
			n = len(writes)
		}
		for i := 0; i < n; i++ {
			c.Access(uint64(addrs[i])<<4, writes[i], false, uint64(i)*10)
		}
		ok := func(r ReqStats) bool {
			return r.Hits.Value()+r.Misses.Value() == r.Accesses.Value()
		}
		return ok(c.C.ReadReq) && ok(c.C.WriteReq) &&
			c.C.OverallHits.Value()+c.C.OverallMisses.Value() == c.C.OverallAccesses.Value()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}

// Property: after any sequence of accesses and flushes, Present agrees with
// a shadow model of the cache contents for the probed address set.
func TestQuickFlushRemoves(t *testing.T) {
	f := func(ops []uint8) bool {
		reg := stats.NewRegistry()
		c := New(L1IConfig(), reg) // small cache: more evictions
		c.SetBelow(func(addr uint64, write, shared bool, cycle uint64) uint64 { return 10 })
		reg.Seal()
		for i, op := range ops {
			addr := uint64(op&0x3f) << 6
			if op&0x40 != 0 {
				c.Flush(addr, uint64(i))
				if c.Present(addr) {
					return false
				}
			} else {
				c.Access(addr, false, false, uint64(i))
				if !c.Present(addr) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(6))}); err != nil {
		t.Fatal(err)
	}
}

// TestSnoopFilterMatchesMapModel drives the snoop filter's grouped line set
// and the per-line map it replaced with the same line streams, requiring
// the same hit/miss answer and line count on every request and a group
// table no larger than its load bound. Each stream is long enough to cross
// the capacity clear twice:
//   - mixed: repeats, line-offset aliases, line 0 and fresh sequential lines;
//   - sparse: one line per 4 KB page, so every line is a group of its own
//     (the worst case for grouping);
//   - kernel: lines at and above tlb.KernelBase, up to the top of the
//     address space.
func TestSnoopFilterMatchesMapModel(t *testing.T) {
	streams := []struct {
		name     string
		addr     func(rng *rand.Rand, i int) uint64
		maxSlots int // absolute bound on the group table (16 bytes a slot)
	}{
		{"mixed", func(rng *rand.Rand, i int) uint64 {
			switch rng.Intn(4) {
			case 0: // a recent line again, at a different byte offset
				return uint64(rng.Intn(i+1))<<6 | uint64(rng.Intn(64))
			case 1:
				return uint64(rng.Intn(64)) // line 0
			default:
				return uint64(i)<<6 + 0x1000_0000
			}
		}, snoopCapacity / 4},
		{"sparse", func(rng *rand.Rand, i int) uint64 {
			if rng.Intn(4) == 0 { // a recent page's line again
				return uint64(rng.Intn(i+1))<<12 | uint64(rng.Intn(64))
			}
			return uint64(i)<<12 | uint64(rng.Intn(4096))&^63
		}, 2 * snoopCapacity},
		{"kernel", func(rng *rand.Rand, i int) uint64 {
			switch rng.Intn(4) {
			case 0:
				return ^uint64(0) - uint64(rng.Intn(1<<14)) // the top of the address space
			case 1:
				return tlb.Unmapped + uint64(rng.Intn(i+1))<<6
			default:
				return tlb.KernelBase + uint64(i)<<6 | uint64(rng.Intn(64))
			}
		}, snoopCapacity / 4},
	}
	for _, st := range streams {
		t.Run(st.name, func(t *testing.T) {
			set := newLineSet()
			model := map[uint64]struct{}{} // lines
			groups := map[uint64]int{}     // lines per 64-line group
			rng := rand.New(rand.NewSource(7))
			clears, peakGroups := 0, 0
			for i := 0; i < 5*snoopCapacity; i++ {
				ln := st.addr(rng, i) >> 6
				_, want := model[ln]
				if !want {
					model[ln] = struct{}{}
					groups[ln>>6]++
					if len(model) > snoopCapacity {
						model = map[uint64]struct{}{}
						groups = map[uint64]int{}
						clears++
					}
				}
				peakGroups = max(peakGroups, len(groups))
				if got := set.add(ln); got != want {
					t.Fatalf("request %d (line %#x): hit=%v, map model %v", i, ln, got, want)
				}
				if set.n != len(model) || set.groups != len(groups) {
					t.Fatalf("request %d: %d lines in %d groups tracked, map model %d in %d",
						i, set.n, set.groups, len(model), len(groups))
				}
			}
			if clears < 2 {
				t.Fatalf("stream cleared the filter %d times, want at least 2", clears)
			}
			// The table doubles once more than half full, so it never
			// reaches four slots per group at its peak.
			if bound := max(256, 4*peakGroups); len(set.slots) > bound {
				t.Fatalf("table grew to %d slots for at most %d groups, want at most %d", len(set.slots), peakGroups, bound)
			}
			if len(set.slots) > st.maxSlots {
				t.Fatalf("table grew to %d slots, want at most %d", len(set.slots), st.maxSlots)
			}
			t.Logf("%d slots (%d KB) at a peak of %d groups", len(set.slots), len(set.slots)*16/1024, peakGroups)
		})
	}
}
