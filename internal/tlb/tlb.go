// Package tlb implements the instruction and data translation lookaside
// buffers, including supervisor permission bits. Permission checks are
// recorded at translation time but — as on the Meltdown-vulnerable pipeline
// the paper simulates — the fault is only raised when the instruction
// reaches commit; the transient window in between is where the attack leaks.
package tlb

import (
	"math/bits"

	"perspectron/internal/stats"
)

// Config sizes one TLB.
type Config struct {
	Entries     int
	PageBytes   int
	WalkLatency uint64 // page table walk cost in cycles
}

// DefaultConfig is a 64-entry 4 KiB-page TLB.
func DefaultConfig() Config {
	return Config{Entries: 64, PageBytes: 4096, WalkLatency: 50}
}

// KernelBase marks the start of supervisor-only address space in the
// simulated layout; user accesses at or above it fault.
const KernelBase = 0xffff_8000_0000_0000

// Unmapped marks addresses with no translation at all (breakingKASLR probes
// these and takes the full walk + fault path).
const Unmapped = 0xffff_f000_0000_0000

// Counters groups one TLB's statistics, named after gem5's dtb/itb stats.
type Counters struct {
	RdAccesses *stats.Counter
	WrAccesses *stats.Counter
	RdHits     *stats.Counter
	WrHits     *stats.Counter
	RdMisses   *stats.Counter
	WrMisses   *stats.Counter
	Walks      *stats.Counter
	WalkCycles *stats.Counter
	PermFaults *stats.Counter
	PageFaults *stats.Counter
	Flushes    *stats.Counter
}

func newCounters(reg *stats.Registry, comp stats.Component, name string) Counters {
	mk := func(suffix, desc string) *stats.Counter {
		return reg.NewRaw(comp, name+"."+suffix, desc)
	}
	return Counters{
		RdAccesses: mk("rdAccesses", "read translations"),
		WrAccesses: mk("wrAccesses", "write translations"),
		RdHits:     mk("rdHits", "read TLB hits"),
		WrHits:     mk("wrHits", "write TLB hits"),
		RdMisses:   mk("rdMisses", "read TLB misses"),
		WrMisses:   mk("wrMisses", "write TLB misses"),
		Walks:      mk("walks", "page table walks"),
		WalkCycles: mk("walkCycles", "page table walk cycles"),
		PermFaults: mk("permFaults", "supervisor permission violations detected"),
		PageFaults: mk("pageFaults", "translations of unmapped addresses"),
		Flushes:    mk("flushes", "TLB flushes"),
	}
}

type entry struct {
	vpn        uint64
	valid      bool
	supervisor bool
	lastUse    uint64
}

// Result describes one translation.
type Result struct {
	Latency   uint64
	PermFault bool // supervisor page touched from user mode (deferred fault)
	PageFault bool // no mapping exists
}

// TLB is one translation buffer.
type TLB struct {
	cfg       Config
	C         Counters
	ents      []entry
	tick      uint64
	pageShift uint   // log2(PageBytes)
	entMask   uint64 // Entries-1
}

// New constructs a TLB with counters under comp/name ("dtb" or "itb").
// Entries and PageBytes must be powers of two.
func New(cfg Config, reg *stats.Registry, comp stats.Component, name string) *TLB {
	mustPow2("entry count", cfg.Entries)
	mustPow2("page size", cfg.PageBytes)
	return &TLB{
		cfg:       cfg,
		C:         newCounters(reg, comp, name),
		ents:      make([]entry, cfg.Entries),
		pageShift: uint(bits.TrailingZeros(uint(cfg.PageBytes))),
		entMask:   uint64(cfg.Entries - 1),
	}
}

func mustPow2(what string, v int) {
	if v <= 0 || v&(v-1) != 0 {
		panic("tlb: " + what + " must be a power of two")
	}
}

// Translate translates addr for a user-mode access. write selects the
// rd/wr counter family.
func (t *TLB) Translate(addr uint64, write bool) Result {
	t.tick++
	if write {
		t.C.WrAccesses.Inc()
	} else {
		t.C.RdAccesses.Inc()
	}

	if addr >= Unmapped {
		// No translation exists: full walk, then page fault.
		t.miss(write)
		t.C.PageFaults.Inc()
		return Result{Latency: t.cfg.WalkLatency, PageFault: true}
	}

	super := addr >= KernelBase
	vpn := addr >> t.pageShift
	e := &t.ents[vpn&t.entMask]
	if e.valid && e.vpn == vpn {
		if write {
			t.C.WrHits.Inc()
		} else {
			t.C.RdHits.Inc()
		}
		e.lastUse = t.tick
		if super && e.supervisor {
			t.C.PermFaults.Inc()
			return Result{Latency: 1, PermFault: true}
		}
		return Result{Latency: 1}
	}

	t.miss(write)
	*e = entry{vpn: vpn, valid: true, supervisor: super, lastUse: t.tick}
	res := Result{Latency: t.cfg.WalkLatency}
	if super {
		t.C.PermFaults.Inc()
		res.PermFault = true
	}
	return res
}

func (t *TLB) miss(write bool) {
	if write {
		t.C.WrMisses.Inc()
	} else {
		t.C.RdMisses.Inc()
	}
	t.C.Walks.Inc()
	t.C.WalkCycles.Add(float64(t.cfg.WalkLatency))
}

// Flush invalidates all entries (context switch / attack hygiene).
func (t *TLB) Flush() {
	for i := range t.ents {
		t.ents[i] = entry{}
	}
	t.C.Flushes.Inc()
}
