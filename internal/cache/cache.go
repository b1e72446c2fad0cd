// Package cache implements the simulated cache hierarchy: set-associative
// L1I/L1D/L2 caches with LRU replacement, MSHR occupancy modelling, CLFLUSH
// semantics, and the bus transaction distributions (ReadSharedReq,
// ReadResp, CleanEvict, WritebackClean, ...) that the paper's feature
// analysis identifies as invariant attack footprints.
package cache

import (
	"math/bits"

	"perspectron/internal/stats"
)

// Config sizes one cache.
type Config struct {
	Name      string // gem5-style prefix, e.g. "dcache"
	Component stats.Component
	SizeBytes int
	LineBytes int
	Ways      int
	Latency   uint64 // hit latency, cycles (tag+data)
	MSHRs     int
}

// Table II configurations.
func L1IConfig() Config {
	return Config{Name: "icache", Component: stats.CompICache,
		SizeBytes: 32 * 1024, LineBytes: 64, Ways: 4, Latency: 2, MSHRs: 4}
}

func L1DConfig() Config {
	return Config{Name: "dcache", Component: stats.CompDCache,
		SizeBytes: 64 * 1024, LineBytes: 64, Ways: 8, Latency: 2, MSHRs: 10}
}

func L2Config() Config {
	return Config{Name: "l2", Component: stats.CompL2,
		SizeBytes: 2 * 1024 * 1024, LineBytes: 64, Ways: 8, Latency: 20, MSHRs: 20}
}

// ReqStats is the per-request-type counter family gem5 reports for each
// cache (hits, misses, accesses, latency sums, MSHR misses).
type ReqStats struct {
	Hits           *stats.Counter
	Misses         *stats.Counter
	Accesses       *stats.Counter
	MissLatency    *stats.Counter
	MSHRMisses     *stats.Counter
	MSHRMissLat    *stats.Counter
	MSHRHits       *stats.Counter
	AvgMissLatency *stats.Counter // running sum used as a rate proxy
}

func newReqStats(reg *stats.Registry, comp stats.Component, cacheName, req string) ReqStats {
	mk := func(suffix, desc string) *stats.Counter {
		return reg.NewRaw(comp, cacheName+"."+req+"_"+suffix, desc)
	}
	return ReqStats{
		Hits:           mk("hits", req+" hits"),
		Misses:         mk("misses", req+" misses"),
		Accesses:       mk("accesses", req+" accesses"),
		MissLatency:    mk("miss_latency", "total "+req+" miss latency"),
		MSHRMisses:     mk("mshr_misses", req+" MSHR misses"),
		MSHRMissLat:    mk("mshr_miss_latency", "total "+req+" MSHR miss latency"),
		MSHRHits:       mk("mshr_hits", req+" MSHR hits (merged targets)"),
		AvgMissLatency: mk("avg_miss_latency", "sum proxy for average "+req+" miss latency"),
	}
}

// Counters groups one cache's statistics.
type Counters struct {
	ReadReq       ReqStats
	WriteReq      ReqStats
	ReadSharedReq ReqStats
	ReadExReq     ReqStats

	OverallHits     *stats.View // a view over the cache's hit count
	OverallMisses   *stats.Counter
	OverallAccesses *stats.View // a view over the cache's access count
	Replacements    *stats.Counter
	WritebacksDirty *stats.Counter
	WritebacksClean *stats.Counter
	Fills           *stats.Counter

	FlushOps    *stats.Counter
	FlushHits   *stats.Counter
	FlushMisses *stats.Counter

	BlockedNoMSHRs   *stats.Counter
	BlockedNoTargets *stats.Counter
	BlockedNoWB      *stats.Counter
	MSHROccupancy    *stats.Counter // occupancy-cycles sum

	TagAccesses  *stats.Counter
	DataAccesses *stats.View // a view over the cache's hit count

	LFBReads   *stats.Counter // line fill buffer reads (MDS/CacheOut path)
	LFBForward *stats.Counter

	MissLatencyDist []*stats.Counter // log2-bucketed miss latency distribution
	MSHROccDist     []*stats.Counter // MSHR occupancy distribution

	Rekeys *stats.Counter // CEASER-style index re-randomizations
}

// newCounters registers one cache's counters; the lockstep ones are views
// over accesses and hits.
func newCounters(reg *stats.Registry, comp stats.Component, name string, accesses, hits *uint64) Counters {
	mk := func(suffix, desc string) *stats.Counter {
		return reg.NewRaw(comp, name+"."+suffix, desc)
	}
	view := func(suffix, desc string, src *uint64) *stats.View {
		return reg.NewView(comp, name+"."+suffix, desc, src, 1)
	}
	return Counters{
		ReadReq:       newReqStats(reg, comp, name, "ReadReq"),
		WriteReq:      newReqStats(reg, comp, name, "WriteReq"),
		ReadSharedReq: newReqStats(reg, comp, name, "ReadSharedReq"),
		ReadExReq:     newReqStats(reg, comp, name, "ReadExReq"),

		OverallHits:     view("overall_hits", "hits for all request types", hits),
		OverallMisses:   mk("overall_misses", "misses for all request types"),
		OverallAccesses: view("overall_accesses", "accesses for all request types", accesses),
		Replacements:    mk("replacements", "lines evicted to make room for fills"),
		WritebacksDirty: mk("writebacks_dirty", "dirty lines written back"),
		WritebacksClean: mk("writebacks_clean", "clean lines evicted with notification"),
		Fills:           mk("fills", "lines filled from below"),

		FlushOps:    mk("flush_ops", "CLFLUSH operations handled"),
		FlushHits:   mk("flush_hits", "CLFLUSH found the line present"),
		FlushMisses: mk("flush_misses", "CLFLUSH line absent"),

		BlockedNoMSHRs:   mk("blocked::no_mshrs", "cycles blocked for free MSHR"),
		BlockedNoTargets: mk("blocked::no_targets", "cycles blocked for MSHR targets"),
		BlockedNoWB:      mk("blocked::no_wb_buffers", "cycles blocked for write buffer"),
		MSHROccupancy:    mk("mshr_occupancy", "MSHR occupancy-cycles"),

		TagAccesses:  mk("tags.tag_accesses", "tag array accesses"),
		DataAccesses: view("tags.data_accesses", "data array accesses", hits),

		LFBReads:   mk("lfb_reads", "reads serviced from the line fill buffer"),
		LFBForward: mk("lfb_forwards", "stale fill-buffer data forwarded (MDS window)"),

		MissLatencyDist: distCounters(reg, comp, name+".miss_latency_dist", 12),
		MSHROccDist:     distCounters(reg, comp, name+".mshr_occ_dist", 8),

		Rekeys: mk("rekeys", "index-randomization rekey events"),
	}
}

func distCounters(reg *stats.Registry, comp stats.Component, prefix string, n int) []*stats.Counter {
	out := make([]*stats.Counter, n)
	for i := range out {
		out[i] = reg.NewRaw(comp, prefix+"::"+itobs(i), prefix+" bucket")
	}
	return out
}

func itobs(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// log2Bucket maps v into one of n log2-spaced buckets: floor(log2(v)),
// with 0 and 1 in bucket 0 and everything past the top clamped into it.
func log2Bucket(v uint64, n int) int {
	b := bits.Len64(v) - 1
	if b < 0 {
		return 0
	}
	return min(b, n-1)
}

// mshrPool tracks outstanding misses by release cycle.
type mshrPool struct {
	release []uint64
	size    int
}

func newMSHRPool(n int) *mshrPool { return &mshrPool{release: make([]uint64, 0, n), size: n} }

// acquire registers a miss completing at done. It returns the number of
// cycles the requester stalls because all MSHRs are busy, and the occupancy
// after registration. One pass retires the completed entries and finds the
// earliest live one; when every MSHR is busy, the request waits for that
// entry and takes it over.
func (m *mshrPool) acquire(now, done uint64) (stall uint64, occ int) {
	rel := m.release
	n, earliest, first := 0, 0, ^uint64(0)
	for _, r := range rel {
		if r > now {
			rel[n] = r
			if r < first {
				earliest, first = n, r
			}
			n++
		}
	}
	if n < m.size {
		m.release = append(rel[:n], done)
		return 0, n + 1
	}
	m.release = rel[:n]
	stall = first - now
	rel[earliest] = done + stall
	return stall, n
}

func (m *mshrPool) occupancy(now uint64) int {
	n := 0
	for _, r := range m.release {
		if r > now {
			n++
		}
	}
	return n
}

// Cache is one level of the hierarchy.
type Cache struct {
	cfg      Config
	sets     int
	setMask  uint64 // sets-1: sets is a power of two
	setShift uint   // log2(sets)
	shift    uint   // log2(line bytes)
	// The tag store is struct-of-arrays, set-major (way w of set s sits
	// at s*Ways+w). keys holds tag+1 with 0 marking an invalid way, so a
	// set's tags share one host cache line on the hit path; the LRU stamps
	// and dirty flags live apart and mean nothing for an invalid way (a
	// fill sets both).
	keys     []uint64
	lastUse  []uint64
	dirty    []bool
	tick     uint64 // LRU clock; counts accesses
	hits     uint64 // hits among those accesses
	scramble uint64 // CEASER index key; 0 = direct mapping
	C        Counters
	mshrs    *mshrPool

	// below is invoked on a miss and returns the fill latency from the
	// next level (bus + lower cache + memory).
	below func(addr uint64, write, shared bool, cycle uint64) uint64
	// evict is invoked when a victim line leaves this cache.
	evict func(addr uint64, dirty bool, cycle uint64)
	// flushBelow propagates CLFLUSH downward.
	flushBelow func(addr uint64, cycle uint64) uint64
}

// New constructs a cache and registers its counters. The set count
// (SizeBytes / LineBytes / Ways) and LineBytes must be powers of two.
func New(cfg Config, reg *stats.Registry) *Cache {
	lineCount := cfg.SizeBytes / cfg.LineBytes
	sets := lineCount / cfg.Ways
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("cache: " + cfg.Name + " set count must be a power of two")
	}
	if cfg.LineBytes <= 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		panic("cache: " + cfg.Name + " line size must be a power of two")
	}
	c := &Cache{
		cfg:      cfg,
		sets:     sets,
		setMask:  uint64(sets - 1),
		setShift: uint(bits.TrailingZeros(uint(sets))),
		shift:    uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		keys:     make([]uint64, lineCount),
		lastUse:  make([]uint64, lineCount),
		dirty:    make([]bool, lineCount),
		mshrs:    newMSHRPool(cfg.MSHRs),
	}
	c.C = newCounters(reg, cfg.Component, cfg.Name, &c.tick, &c.hits)
	return c
}

// SetBelow wires the miss path.
func (c *Cache) SetBelow(f func(addr uint64, write, shared bool, cycle uint64) uint64) {
	c.below = f
}

// SetEvict wires the eviction notification path.
func (c *Cache) SetEvict(f func(addr uint64, dirty bool, cycle uint64)) { c.evict = f }

// SetFlushBelow wires downward CLFLUSH propagation.
func (c *Cache) SetFlushBelow(f func(addr uint64, cycle uint64) uint64) { c.flushBelow = f }

// Sets returns the number of sets (for workload generators that construct
// eviction sets, e.g. Prime+Probe).
func (c *Cache) Sets() int { return c.sets }

// LineBytes returns the line size.
func (c *Cache) LineBytes() int { return c.cfg.LineBytes }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.cfg.Ways }

// index returns addr's set and its tag-store key (tag+1).
func (c *Cache) index(addr uint64) (set int, key uint64) {
	blk := addr >> c.shift
	if c.scramble != 0 {
		// CEASER-style encrypted index: a keyed mix decides set placement
		// so attackers cannot construct eviction sets.
		mixed := (blk ^ c.scramble) * 0x9e3779b97f4a7c15
		return int(mixed & c.setMask), blk>>c.setShift + 1
	}
	return int(blk & c.setMask), blk>>c.setShift + 1
}

// lineAddr rebuilds the address of the line held under key in set.
func (c *Cache) lineAddr(set int, key uint64) uint64 {
	return ((key-1)<<c.setShift | uint64(set)) << c.shift
}

// Rekey enables (or rotates) CEASER-style index randomization (§IV-G1 /
// Qureshi MICRO'18): future accesses map sets through the new key. Lines
// placed under the old mapping become unreachable, so they are invalidated
// (dirty lines write back), modelling an epoch remap.
func (c *Cache) Rekey(key uint64, cycle uint64) {
	c.C.Rekeys.Inc()
	for i, k := range c.keys {
		if k != 0 && c.dirty[i] {
			c.C.WritebacksDirty.Inc()
			if c.evict != nil {
				// Address reconstruction uses the old mapping.
				c.evict(c.lineAddr(i/c.cfg.Ways, k), true, cycle)
			}
		}
	}
	clear(c.keys)
	c.scramble = key
}

// find returns the flat index of key's way in set, or -1.
func (c *Cache) find(set int, key uint64) int {
	base := set * c.cfg.Ways
	for i, k := range c.keys[base : base+c.cfg.Ways] {
		if k == key {
			return base + i
		}
	}
	return -1
}

func (c *Cache) reqStats(write, shared bool) *ReqStats {
	switch {
	case write:
		return &c.C.WriteReq
	case shared:
		return &c.C.ReadSharedReq
	default:
		return &c.C.ReadReq
	}
}

// Access performs a read or write of addr at the given cycle and returns the
// latency in cycles. shared marks accesses to shared (library) pages, which
// travel as ReadSharedReq transactions.
func (c *Cache) Access(addr uint64, write, shared bool, cycle uint64) uint64 {
	rs := c.reqStats(write, shared)
	rs.Accesses.Inc()
	c.C.TagAccesses.Inc()
	c.tick++

	set, key := c.index(addr)
	if i := c.find(set, key); i >= 0 {
		rs.Hits.Inc()
		c.hits++
		c.lastUse[i] = c.tick
		if write {
			c.dirty[i] = true
		}
		return c.cfg.Latency
	}

	// Miss.
	rs.Misses.Inc()
	c.C.OverallMisses.Inc()
	rs.MSHRMisses.Inc()

	var fill uint64
	if c.below != nil {
		fill = c.below(addr, write, shared, cycle+c.cfg.Latency)
	}
	lat := c.cfg.Latency + fill
	stall, occ := c.mshrs.acquire(cycle, cycle+lat)
	if stall > 0 {
		c.C.BlockedNoMSHRs.Add(float64(stall))
		lat += stall
	}
	c.C.MSHROccupancy.Add(float64(occ))
	if occ >= len(c.C.MSHROccDist) {
		occ = len(c.C.MSHROccDist) - 1
	}
	c.C.MSHROccDist[occ].Inc()
	c.C.MissLatencyDist[log2Bucket(lat, len(c.C.MissLatencyDist))].Inc()
	rs.MissLatency.Add(float64(lat))
	rs.MSHRMissLat.Add(float64(lat))
	rs.AvgMissLatency.Add(float64(lat))

	c.fill(set, key, write, cycle)
	return lat
}

// fill installs a line into the first invalid way of set, else over the
// LRU victim (the first way with the oldest stamp), which it evicts.
func (c *Cache) fill(set int, key uint64, write bool, cycle uint64) {
	base := set * c.cfg.Ways
	victim := -1
	for i, k := range c.keys[base : base+c.cfg.Ways] {
		if k == 0 {
			victim = base + i
			break
		}
	}
	if victim < 0 {
		victim = base
		oldest := c.lastUse[base]
		for i := base + 1; i < base+c.cfg.Ways; i++ {
			if u := c.lastUse[i]; u < oldest {
				victim, oldest = i, u
			}
		}
		c.C.Replacements.Inc()
		if c.dirty[victim] {
			c.C.WritebacksDirty.Inc()
		} else {
			c.C.WritebacksClean.Inc()
		}
		if c.evict != nil {
			c.evict(c.lineAddr(set, c.keys[victim]), c.dirty[victim], cycle)
		}
	}
	c.keys[victim] = key
	c.lastUse[victim] = c.tick
	c.dirty[victim] = write
	c.C.Fills.Inc()
}

// Present reports whether addr is cached (no counter side effects beyond a
// tag access; used by tests and the flush-timing path).
func (c *Cache) Present(addr uint64) bool {
	return c.find(c.index(addr)) >= 0
}

// Flush implements CLFLUSH: invalidate addr's line if present, writing back
// dirty data. It returns (present, latency); flushing a present line takes
// longer, the timing signal Flush+Flush exploits.
func (c *Cache) Flush(addr uint64, cycle uint64) (present bool, lat uint64) {
	c.C.FlushOps.Inc()
	c.C.TagAccesses.Inc()
	lat = c.cfg.Latency
	if i := c.find(c.index(addr)); i >= 0 {
		present = true
		c.C.FlushHits.Inc()
		if c.dirty[i] {
			c.C.WritebacksDirty.Inc()
			if c.evict != nil {
				c.evict(addr, true, cycle)
			}
			lat += 4
		}
		c.keys[i] = 0
		lat += c.cfg.Latency // back-invalidate cost
	} else {
		c.C.FlushMisses.Inc()
	}
	if c.flushBelow != nil {
		lat += c.flushBelow(addr, cycle+lat)
	}
	return present, lat
}

// ReadLFB models an MDS-style read that samples in-flight data from the line
// fill buffer instead of the cache array (the CacheOut/RIDL primitive). It
// always counts an LFB read, and counts a forward when there are outstanding
// fills whose stale data the transient load can sample.
func (c *Cache) ReadLFB(cycle uint64) (forwarded bool) {
	c.C.LFBReads.Inc()
	if c.mshrs.occupancy(cycle) > 0 {
		c.C.LFBForward.Inc()
		return true
	}
	return false
}

// MSHROccupancy returns current in-flight misses (for tests).
func (c *Cache) MSHROccupancy(cycle uint64) int { return c.mshrs.occupancy(cycle) }
