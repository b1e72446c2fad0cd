// Package cache implements the simulated cache hierarchy: set-associative
// L1I/L1D/L2 caches with LRU replacement, MSHR and write-buffer occupancy
// modelling, CLFLUSH semantics, and the bus transaction distributions
// (ReadSharedReq, ReadResp, CleanEvict, WritebackClean, ...) that the paper's
// feature analysis identifies as invariant attack footprints.
package cache

import "perspectron/internal/stats"

// Config sizes one cache.
type Config struct {
	Name         string // gem5-style prefix, e.g. "dcache"
	Component    stats.Component
	SizeBytes    int
	LineBytes    int
	Ways         int
	Latency      uint64 // hit latency, cycles (tag+data)
	MSHRs        int
	TgtsPerMSHR  int
	WriteBuffers int
}

// Table II configurations.
func L1IConfig() Config {
	return Config{Name: "icache", Component: stats.CompICache,
		SizeBytes: 32 * 1024, LineBytes: 64, Ways: 4, Latency: 2,
		MSHRs: 4, TgtsPerMSHR: 8, WriteBuffers: 0}
}

func L1DConfig() Config {
	return Config{Name: "dcache", Component: stats.CompDCache,
		SizeBytes: 64 * 1024, LineBytes: 64, Ways: 8, Latency: 2,
		MSHRs: 10, TgtsPerMSHR: 12, WriteBuffers: 8}
}

func L2Config() Config {
	return Config{Name: "l2", Component: stats.CompL2,
		SizeBytes: 2 * 1024 * 1024, LineBytes: 64, Ways: 8, Latency: 20,
		MSHRs: 20, TgtsPerMSHR: 12, WriteBuffers: 8}
}

type line struct {
	tag     uint64
	valid   bool
	dirty   bool
	shared  bool // filled by a shared-memory read (ReadSharedReq)
	lastUse uint64
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

	OverallHits     *stats.Counter
	OverallMisses   *stats.Counter
	OverallAccesses *stats.Counter
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
	DataAccesses *stats.Counter

	LFBReads   *stats.Counter // line fill buffer reads (MDS/CacheOut path)
	LFBForward *stats.Counter

	MissLatencyDist []*stats.Counter // log2-bucketed miss latency distribution
	MSHROccDist     []*stats.Counter // MSHR occupancy distribution

	Rekeys *stats.Counter // CEASER-style index re-randomizations
}

func newCounters(reg *stats.Registry, comp stats.Component, name string) Counters {
	mk := func(suffix, desc string) *stats.Counter {
		return reg.NewRaw(comp, name+"."+suffix, desc)
	}
	return Counters{
		ReadReq:       newReqStats(reg, comp, name, "ReadReq"),
		WriteReq:      newReqStats(reg, comp, name, "WriteReq"),
		ReadSharedReq: newReqStats(reg, comp, name, "ReadSharedReq"),
		ReadExReq:     newReqStats(reg, comp, name, "ReadExReq"),

		OverallHits:     mk("overall_hits", "hits for all request types"),
		OverallMisses:   mk("overall_misses", "misses for all request types"),
		OverallAccesses: mk("overall_accesses", "accesses for all request types"),
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
		DataAccesses: mk("tags.data_accesses", "data array accesses"),

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

// log2Bucket maps v into one of n log2-spaced buckets.
func log2Bucket(v uint64, n int) int {
	b := 0
	for v > 1 && b < n-1 {
		v >>= 1
		b++
	}
	return b
}

// mshrPool tracks outstanding misses by release cycle.
type mshrPool struct {
	release []uint64
	size    int
}

func newMSHRPool(n int) *mshrPool { return &mshrPool{release: make([]uint64, 0, n), size: n} }

// acquire registers a miss completing at done. It returns the number of
// cycles the requester stalls because all MSHRs are busy, and the occupancy
// after registration.
func (m *mshrPool) acquire(now, done uint64) (stall uint64, occ int) {
	// Retire completed entries.
	live := m.release[:0]
	for _, r := range m.release {
		if r > now {
			live = append(live, r)
		}
	}
	m.release = live
	if len(m.release) >= m.size {
		// Stall until the earliest entry retires.
		earliest := m.release[0]
		for _, r := range m.release {
			if r < earliest {
				earliest = r
			}
		}
		if earliest > now {
			stall = earliest - now
		}
		// Replace the earliest entry.
		for i, r := range m.release {
			if r == earliest {
				m.release[i] = done + stall
				break
			}
		}
	} else {
		m.release = append(m.release, done)
	}
	return stall, len(m.release)
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
	shift    uint
	lines    []line
	tick     uint64 // LRU clock
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

// New constructs a cache and registers its counters.
func New(cfg Config, reg *stats.Registry) *Cache {
	lineCount := cfg.SizeBytes / cfg.LineBytes
	sets := lineCount / cfg.Ways
	shift := uint(0)
	for 1<<shift < cfg.LineBytes {
		shift++
	}
	return &Cache{
		cfg:   cfg,
		sets:  sets,
		shift: shift,
		lines: make([]line, lineCount),
		C:     newCounters(reg, cfg.Component, cfg.Name),
		mshrs: newMSHRPool(cfg.MSHRs),
	}
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

func (c *Cache) index(addr uint64) (set int, tag uint64) {
	blk := addr >> c.shift
	if c.scramble != 0 {
		// CEASER-style encrypted index: a keyed mix decides set placement
		// so attackers cannot construct eviction sets.
		mixed := (blk ^ c.scramble) * 0x9e3779b97f4a7c15
		return int(mixed % uint64(c.sets)), blk / uint64(c.sets)
	}
	return int(blk % uint64(c.sets)), blk / uint64(c.sets)
}

// Rekey enables (or rotates) CEASER-style index randomization (§IV-G1 /
// Qureshi MICRO'18): future accesses map sets through the new key. Lines
// placed under the old mapping become unreachable, so they are invalidated
// (dirty lines write back), modelling an epoch remap.
func (c *Cache) Rekey(key uint64, cycle uint64) {
	c.C.Rekeys.Inc()
	for i := range c.lines {
		if c.lines[i].valid && c.lines[i].dirty {
			c.C.WritebacksDirty.Inc()
			if c.evict != nil {
				// Address reconstruction uses the old mapping.
				set := i / c.cfg.Ways
				addr := (c.lines[i].tag*uint64(c.sets) + uint64(set)) << c.shift
				c.evict(addr, true, cycle)
			}
		}
		c.lines[i] = line{}
	}
	c.scramble = key
}

func (c *Cache) set(i int) []line {
	return c.lines[i*c.cfg.Ways : (i+1)*c.cfg.Ways]
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
	c.C.OverallAccesses.Inc()
	c.C.TagAccesses.Inc()
	c.tick++

	set, tag := c.index(addr)
	ways := c.set(set)
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			rs.Hits.Inc()
			c.C.OverallHits.Inc()
			c.C.DataAccesses.Inc()
			ways[i].lastUse = c.tick
			if write {
				ways[i].dirty = true
			}
			return c.cfg.Latency
		}
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

	c.fill(set, tag, write, shared, cycle)
	return lat
}

// fill installs a line, evicting the LRU victim if necessary.
func (c *Cache) fill(set int, tag uint64, write, shared bool, cycle uint64) {
	ways := c.set(set)
	victim := 0
	for i := range ways {
		if !ways[i].valid {
			victim = i
			goto install
		}
		if ways[i].lastUse < ways[victim].lastUse {
			victim = i
		}
	}
	// Evict.
	c.C.Replacements.Inc()
	if ways[victim].dirty {
		c.C.WritebacksDirty.Inc()
	} else {
		c.C.WritebacksClean.Inc()
	}
	if c.evict != nil {
		vAddr := (ways[victim].tag*uint64(c.sets) + uint64(set)) << c.shift
		c.evict(vAddr, ways[victim].dirty, cycle)
	}
install:
	ways[victim] = line{tag: tag, valid: true, dirty: write, shared: shared, lastUse: c.tick}
	c.C.Fills.Inc()
}

// Present reports whether addr is cached (no counter side effects beyond a
// tag access; used by tests and the flush-timing path).
func (c *Cache) Present(addr uint64) bool {
	set, tag := c.index(addr)
	for _, l := range c.set(set) {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// Flush implements CLFLUSH: invalidate addr's line if present, writing back
// dirty data. It returns (present, latency); flushing a present line takes
// longer, the timing signal Flush+Flush exploits.
func (c *Cache) Flush(addr uint64, cycle uint64) (present bool, lat uint64) {
	c.C.FlushOps.Inc()
	c.C.TagAccesses.Inc()
	set, tag := c.index(addr)
	ways := c.set(set)
	lat = c.cfg.Latency
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			present = true
			c.C.FlushHits.Inc()
			if ways[i].dirty {
				c.C.WritebacksDirty.Inc()
				if c.evict != nil {
					c.evict(addr, true, cycle)
				}
				lat += 4
			}
			ways[i] = line{}
			lat += c.cfg.Latency // back-invalidate cost
			break
		}
	}
	if !present {
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
