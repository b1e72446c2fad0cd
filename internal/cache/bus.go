package cache

import (
	"math/bits"

	"perspectron/internal/stats"
)

// TransType enumerates the coherent bus transaction types whose distribution
// gem5 reports as <bus>.trans_dist::<type>. The paper's feature analysis
// leans on ReadSharedReq, ReadResp, CleanEvict and WritebackClean.
type TransType int

const (
	TransReadReq TransType = iota
	TransReadResp
	TransWriteReq
	TransWriteResp
	TransReadSharedReq
	TransReadExReq
	TransReadExResp
	TransWritebackDirty
	TransWritebackClean
	TransCleanEvict
	TransUpgradeReq
	TransFlushReq
	TransInvalidateReq
	TransInvalidateResp
	NumTransTypes
)

var transNames = [NumTransTypes]string{
	"ReadReq", "ReadResp", "WriteReq", "WriteResp", "ReadSharedReq",
	"ReadExReq", "ReadExResp", "WritebackDirty", "WritebackClean",
	"CleanEvict", "UpgradeReq", "FlushReq", "InvalidateReq", "InvalidateResp",
}

// String returns the gem5 transaction name.
func (t TransType) String() string {
	if t < 0 || t >= NumTransTypes {
		return "unknown"
	}
	return transNames[t]
}

// Bus models a transaction-counting crossbar between cache levels. It is not
// a timing model of arbitration; it adds a fixed per-hop latency and records
// the transaction distribution, snoop filter activity and byte throughput,
// which is what the detector observes.
type Bus struct {
	Name    string
	latency uint64

	Trans [NumTransTypes]*stats.Counter

	// SnoopRequests, PktCount and ReqLayerBusy move with every recorded
	// transaction, so they are views over the transaction count.
	SnoopRequests *stats.View
	SnoopHits     *stats.Counter
	SnoopTraffic  *stats.Counter
	PktCount      *stats.View
	PktSize       *stats.Counter
	ReqLayerBusy  *stats.View
	RespLayerBusy *stats.Counter

	PktSizeDist []*stats.Counter

	snoopSet  lineSet
	lineShift uint   // log2(line bytes)
	records   uint64 // transactions recorded
}

// NewBus creates a bus named name (e.g. "tol2bus", "membus") with the given
// per-hop latency and registers its counters. lineBytes is a power of two.
func NewBus(name string, latency uint64, lineBytes int, reg *stats.Registry) *Bus {
	if lineBytes <= 0 || lineBytes&(lineBytes-1) != 0 {
		panic("cache: bus line size must be a power of two")
	}
	b := &Bus{
		Name:      name,
		latency:   latency,
		snoopSet:  newLineSet(),
		lineShift: uint(bits.TrailingZeros(uint(lineBytes))),
	}
	for t := TransType(0); t < NumTransTypes; t++ {
		b.Trans[t] = reg.NewRaw(stats.CompBus, name+".trans_dist::"+t.String(),
			name+" "+t.String()+" transactions")
	}
	b.SnoopRequests = reg.NewView(stats.CompBus, name+".snoop_filter.tot_requests", "snoop filter requests", &b.records, 1)
	b.SnoopHits = reg.NewRaw(stats.CompBus, name+".snoop_filter.hit_single_requests", "snoop filter hits")
	b.SnoopTraffic = reg.NewRaw(stats.CompBus, name+".snoop_traffic", "snoop traffic bytes")
	b.PktCount = reg.NewView(stats.CompBus, name+".pkt_count", "total packets", &b.records, 1)
	b.PktSize = reg.NewRaw(stats.CompBus, name+".pkt_size", "total packet bytes")
	b.ReqLayerBusy = reg.NewView(stats.CompBus, name+".reqLayer0.occupancy", "request layer occupancy", &b.records, latency)
	b.RespLayerBusy = reg.NewRaw(stats.CompBus, name+".respLayer0.occupancy", "response layer occupancy")
	b.PktSizeDist = distCounters(reg, stats.CompBus, name+".pkt_size_dist", 8)
	return b
}

// Send records a transaction of type t carrying bytes payload and returns
// the bus hop latency. Request types implicitly generate their paired
// response transaction (ReadReq -> ReadResp etc.), matching how gem5's
// distribution counts both directions.
func (b *Bus) Send(t TransType, addr uint64, bytes int) uint64 {
	line := addr >> b.lineShift
	hit := b.snoopSet.add(line)
	b.record(t, bytes, hit)
	resp, respBytes := TransType(-1), 0
	switch t {
	case TransReadReq, TransReadSharedReq:
		resp, respBytes = TransReadResp, bytes
	case TransReadExReq:
		resp, respBytes = TransReadExResp, bytes
	case TransWriteReq:
		resp = TransWriteResp
	case TransInvalidateReq:
		resp = TransInvalidateResp
	}
	if resp >= 0 {
		// The request's probe left line in the filter, so the response's
		// probe hits — unless that insert emptied the filter at capacity,
		// in which case the response re-inserts it.
		respHit := true
		if !hit && b.snoopSet.n == 0 {
			respHit = b.snoopSet.add(line)
		}
		b.record(resp, respBytes, respHit)
	}
	return b.latency
}

// record counts one transaction whose snoop-filter probe hit or missed.
func (b *Bus) record(t TransType, bytes int, snoopHit bool) {
	b.Trans[t].Inc()
	b.records++
	b.PktSize.Add(float64(bytes))
	b.PktSizeDist[log2Bucket(uint64(bytes)+1, len(b.PktSizeDist))].Inc()
	if isResponse(t) {
		b.RespLayerBusy.Add(float64(b.latency))
	}
	// Snoop filter: track which lines have crossed this bus; repeat
	// requests for tracked lines hit in the filter.
	if snoopHit {
		b.SnoopHits.Inc()
		b.SnoopTraffic.Add(float64(bytes))
	}
}

// snoopCapacity bounds the snoop filter, a finite structure: inserting one
// line more than this empties it.
const snoopCapacity = 1 << 16

// lineSet is the snoop filter's set of line numbers (address >> log2 line
// bytes), kept as 64-line groups: one slot per group holds a bitmask of the
// group's lines, so nearby lines share a host cache line and the table
// stays small. Slots are open-addressed with linear probing over a
// power-of-two table kept at most half full; a slot's key is the group
// number plus one, so zero marks an empty slot.
type lineSet struct {
	slots  []groupSlot
	n      int  // lines in the set
	groups int  // occupied slots
	shift  uint // 64 - log2(len(slots)), for Fibonacci hashing
}

type groupSlot struct {
	key  uint64 // group+1; 0 = empty
	bits uint64 // bit i set: line group*64+i is in the set
}

func newLineSet() lineSet { return lineSet{slots: make([]groupSlot, 256), shift: 64 - 8} }

// add inserts line and reports whether it was already present. An insert
// that takes the set past snoopCapacity lines empties it instead.
func (s *lineSet) add(line uint64) bool {
	key, bit := line>>6+1, uint64(1)<<(line&63)
	mask := uint64(len(s.slots) - 1)
	i := (key * 0x9e3779b97f4a7c15) >> s.shift
	for s.slots[i].key != key {
		if s.slots[i].key == 0 {
			s.slots[i].key = key
			s.groups++
			break
		}
		i = (i + 1) & mask
	}
	g := &s.slots[i]
	if g.bits&bit != 0 {
		return true
	}
	g.bits |= bit
	s.n++
	if s.n > snoopCapacity {
		clear(s.slots)
		s.n, s.groups = 0, 0
	} else if 2*s.groups > len(s.slots) {
		s.grow()
	}
	return false
}

// grow doubles the table and reinserts every group.
func (s *lineSet) grow() {
	old := s.slots
	s.slots = make([]groupSlot, 2*len(old))
	s.shift--
	mask := uint64(len(s.slots) - 1)
	for _, g := range old {
		if g.key == 0 {
			continue
		}
		i := (g.key * 0x9e3779b97f4a7c15) >> s.shift
		for s.slots[i].key != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = g
	}
}

func isResponse(t TransType) bool {
	switch t {
	case TransReadResp, TransWriteResp, TransReadExResp, TransInvalidateResp:
		return true
	}
	return false
}

// Latency returns the per-hop latency.
func (b *Bus) Latency() uint64 { return b.latency }
