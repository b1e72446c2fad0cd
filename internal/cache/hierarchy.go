package cache

import "perspectron/internal/stats"

// Memory is the backend below the last-level cache (implemented by
// internal/dram). Access returns the service latency in cycles.
type Memory interface {
	Access(addr uint64, write bool, cycle uint64) uint64
}

// Hierarchy wires L1I and L1D through tol2bus into a shared L2, and the L2
// through membus into main memory, per the paper's Table II.
type Hierarchy struct {
	L1I, L1D, L2 *Cache
	ToL2Bus      *Bus
	MemBus       *Bus
	Mem          Memory
}

// NewHierarchy builds the Table II hierarchy over mem, registering all
// counters in reg.
func NewHierarchy(reg *stats.Registry, mem Memory) *Hierarchy {
	h := &Hierarchy{
		L1I:     New(L1IConfig(), reg),
		L1D:     New(L1DConfig(), reg),
		L2:      New(L2Config(), reg),
		ToL2Bus: NewBus("tol2bus", 1, 64, reg),
		MemBus:  NewBus("membus", 2, 64, reg),
		Mem:     mem,
	}

	// L2 miss path: membus -> memory.
	h.L2.SetBelow(func(addr uint64, write, shared bool, cycle uint64) uint64 {
		t := TransReadReq
		if write {
			t = TransReadExReq
		} else if shared {
			t = TransReadSharedReq
		}
		lat := h.MemBus.Send(t, addr, 64)
		return lat + h.Mem.Access(addr, write, cycle+lat) + h.MemBus.Latency()
	})
	// L2 evictions go to memory over membus.
	h.L2.SetEvict(func(addr uint64, dirty bool, cycle uint64) {
		if dirty {
			h.MemBus.Send(TransWritebackDirty, addr, 64)
			h.Mem.Access(addr, true, cycle)
		} else {
			h.MemBus.Send(TransWritebackClean, addr, 0)
		}
	})

	// L1 miss paths: tol2bus -> L2.
	l1Below := func(addr uint64, write, shared bool, cycle uint64) uint64 {
		t := TransReadReq
		if write {
			t = TransReadExReq
		} else if shared {
			t = TransReadSharedReq
		}
		lat := h.ToL2Bus.Send(t, addr, 64)
		return lat + h.L2.Access(addr, write, shared, cycle+lat) + h.ToL2Bus.Latency()
	}
	h.L1D.SetBelow(l1Below)
	h.L1I.SetBelow(func(addr uint64, write, shared bool, cycle uint64) uint64 {
		return l1Below(addr, false, shared, cycle)
	})

	// L1 evictions: dirty lines write back over tol2bus; clean evictions
	// emit CleanEvict, the Prime+Probe tell from the paper.
	l1Evict := func(addr uint64, dirty bool, cycle uint64) {
		if dirty {
			h.ToL2Bus.Send(TransWritebackDirty, addr, 64)
			h.L2.Access(addr, true, false, cycle)
		} else {
			h.ToL2Bus.Send(TransCleanEvict, addr, 0)
		}
	}
	h.L1D.SetEvict(l1Evict)
	h.L1I.SetEvict(func(addr uint64, dirty bool, cycle uint64) {
		h.ToL2Bus.Send(TransCleanEvict, addr, 0)
	})

	// CLFLUSH propagates through the whole hierarchy to memory.
	h.L1D.SetFlushBelow(func(addr uint64, cycle uint64) uint64 {
		lat := h.ToL2Bus.Send(TransFlushReq, addr, 0)
		_, l2lat := h.L2.Flush(addr, cycle+lat)
		return lat + l2lat
	})
	h.L2.SetFlushBelow(func(addr uint64, cycle uint64) uint64 {
		return h.MemBus.Send(TransFlushReq, addr, 0)
	})
	return h
}

// FetchInst reads instruction memory at pc.
func (h *Hierarchy) FetchInst(pc uint64, cycle uint64) uint64 {
	return h.L1I.Access(pc, false, false, cycle)
}

// ReadData reads addr; shared marks shared-page accesses.
func (h *Hierarchy) ReadData(addr uint64, shared bool, cycle uint64) uint64 {
	return h.L1D.Access(addr, false, shared, cycle)
}

// WriteData writes addr.
func (h *Hierarchy) WriteData(addr uint64, cycle uint64) uint64 {
	return h.L1D.Access(addr, true, false, cycle)
}

// Flush executes CLFLUSH on addr; returns whether the line was present in
// L1D and the total latency (present lines take measurably longer — the
// Flush+Flush timing channel).
func (h *Hierarchy) Flush(addr uint64, cycle uint64) (present bool, lat uint64) {
	return h.L1D.Flush(addr, cycle)
}
