// Package dram models the main-memory controller: read/write queues with
// write-queue servicing of reads, per-bank row buffers with activate
// accounting, bus turnaround tracking, and a DRAM power-state machine with
// per-state energy counters.
//
// The paper's §VII-C feature interpretation singles out mem_ctrls counters
// as invariant attack footprints: bytesReadWrQ (reads serviced by the write
// queue), bytesPerActivate, wrPerTurnAround and selfRefreshEnergy; this
// model computes all of them from the access stream.
package dram

import "perspectron/internal/stats"

// A DDR3-1600-like device behind a 2 GHz core. The shift- and mask-indexed
// sizes are written as shifts, so they are powers of two by construction.
const (
	Banks       = 1 << 3
	rowShift    = 13
	RowBytes    = 1 << rowShift
	lineShift   = 6
	lineBytes   = 1 << lineShift
	ReadQDepth  = 32
	WriteQDepth = 64
	rowHitLat   = 28   // CAS-only access, CPU cycles
	rowMissLat  = 76   // precharge+activate+CAS
	writeDrain  = 400  // cycles a write lingers in the write queue
	idleToPD    = 200  // idle cycles before power-down
	pdToSREF    = 4000 // power-down cycles before self-refresh
)

// Counters groups the mem_ctrls statistics.
type Counters struct {
	ReadReqs      *stats.Counter
	WriteReqs     *stats.Counter
	ReadBursts    *stats.Counter
	WriteBursts   *stats.Counter
	BytesReadDRAM *stats.Counter
	BytesWritten  *stats.Counter
	BytesReadWrQ  *stats.Counter // reads serviced by the write queue
	ServicedByWrQ *stats.Counter

	RowHits     *stats.Counter
	RowMisses   *stats.Counter
	Activations *stats.Counter
	BytesPerAct *stats.Counter // sum of bytes accessed per activation
	Precharges  *stats.Counter

	WrPerTurnAround *stats.Counter
	RdPerTurnAround *stats.Counter
	BusTurnarounds  *stats.Counter

	TotQLat      *stats.Counter
	TotMemAccLat *stats.Counter
	AvgRdQLen    *stats.Counter
	AvgWrQLen    *stats.Counter

	ActEnergy       *stats.Counter
	PreEnergy       *stats.Counter
	ReadEnergy      *stats.Counter
	WriteEnergy     *stats.Counter
	RefreshEnergy   *stats.Counter
	ActBackEnergy   *stats.Counter
	PreBackEnergy   *stats.Counter
	ActPowerDownE   *stats.Counter
	PrePowerDownE   *stats.Counter
	SelfRefreshE    *stats.Counter
	TotalEnergy     *stats.Counter
	TimeIdle        *stats.Counter
	TimeActive      *stats.Counter
	TimePowerDown   *stats.Counter
	TimeSelfRefresh *stats.Counter

	PerBankRd      []*stats.Counter
	PerBankWr      []*stats.Counter
	PerBankRowHit  []*stats.Counter
	PerBankRowMiss []*stats.Counter
	PerBankAct     []*stats.Counter

	RdQLenPdf      []*stats.Counter // read queue length distribution
	WrQLenPdf      []*stats.Counter // write queue length distribution
	BytesPerActPdf []*stats.Counter // bytes-per-activate distribution
}

func newCounters(reg *stats.Registry) Counters {
	mk := func(name, desc string) *stats.Counter {
		return reg.NewRaw(stats.CompMemCtrl, "mem_ctrls."+name, desc)
	}
	c := Counters{
		ReadReqs:      mk("readReqs", "read requests"),
		WriteReqs:     mk("writeReqs", "write requests"),
		ReadBursts:    mk("readBursts", "read bursts"),
		WriteBursts:   mk("writeBursts", "write bursts"),
		BytesReadDRAM: mk("bytesReadDRAM", "bytes read from DRAM"),
		BytesWritten:  mk("bytesWritten", "bytes written to DRAM"),
		BytesReadWrQ:  mk("bytesReadWrQ", "read bytes serviced by the write queue"),
		ServicedByWrQ: mk("servicedByWrQ", "reads serviced by the write queue"),

		RowHits:     mk("readRowHits", "row buffer hits"),
		RowMisses:   mk("readRowMisses", "row buffer misses"),
		Activations: mk("rank0.actCount", "row activations"),
		BytesPerAct: mk("bytesPerActivate", "bytes accessed per row activation (sum)"),
		Precharges:  mk("rank0.preCount", "precharges"),

		WrPerTurnAround: mk("wrPerTurnAround", "writes before turning the bus around"),
		RdPerTurnAround: mk("rdPerTurnAround", "reads before turning the bus around"),
		BusTurnarounds:  mk("busTurnarounds", "bus direction switches"),

		TotQLat:      mk("totQLat", "total queueing latency"),
		TotMemAccLat: mk("totMemAccLat", "total memory access latency"),
		AvgRdQLen:    mk("rdQLenSum", "read queue length sum"),
		AvgWrQLen:    mk("wrQLenSum", "write queue length sum"),

		ActEnergy:       mk("rank0.actEnergy", "activate energy"),
		PreEnergy:       mk("rank0.preEnergy", "precharge energy"),
		ReadEnergy:      mk("rank0.readEnergy", "read burst energy"),
		WriteEnergy:     mk("rank0.writeEnergy", "write burst energy"),
		RefreshEnergy:   mk("rank0.refreshEnergy", "refresh energy"),
		ActBackEnergy:   mk("rank0.actBackEnergy", "active background energy"),
		PreBackEnergy:   mk("rank0.preBackEnergy", "precharge background energy"),
		ActPowerDownE:   mk("rank0.actPowerDownEnergy", "active power-down energy"),
		PrePowerDownE:   mk("rank0.prePowerDownEnergy", "precharge power-down energy"),
		SelfRefreshE:    mk("selfRefreshEnergy", "self-refresh energy"),
		TotalEnergy:     mk("rank0.totalEnergy", "total DRAM energy"),
		TimeIdle:        mk("memoryStateTime::IDLE", "cycles in idle state"),
		TimeActive:      mk("memoryStateTime::ACT", "cycles in active state"),
		TimePowerDown:   mk("memoryStateTime::PDN", "cycles in power-down"),
		TimeSelfRefresh: mk("memoryStateTime::SREF", "cycles in self-refresh"),
	}
	for b := 0; b < Banks; b++ {
		c.PerBankRd = append(c.PerBankRd, reg.NewRaw(stats.CompMemCtrl,
			"mem_ctrls.perBankRdBursts"+itoa(b), "per-bank read bursts"))
		c.PerBankWr = append(c.PerBankWr, reg.NewRaw(stats.CompMemCtrl,
			"mem_ctrls.perBankWrBursts"+itoa(b), "per-bank write bursts"))
		c.PerBankRowHit = append(c.PerBankRowHit, reg.NewRaw(stats.CompMemCtrl,
			"mem_ctrls.bank"+itoa(b)+".rowHits", "per-bank row buffer hits"))
		c.PerBankRowMiss = append(c.PerBankRowMiss, reg.NewRaw(stats.CompMemCtrl,
			"mem_ctrls.bank"+itoa(b)+".rowMisses", "per-bank row buffer misses"))
		c.PerBankAct = append(c.PerBankAct, reg.NewRaw(stats.CompMemCtrl,
			"mem_ctrls.bank"+itoa(b)+".actCount", "per-bank activations"))
	}
	for i := 0; i < 32; i++ {
		c.RdQLenPdf = append(c.RdQLenPdf, reg.NewRaw(stats.CompMemCtrl,
			"mem_ctrls.rdQLenPdf::"+itoa(i), "read queue length PDF bucket"))
	}
	for i := 0; i < 64; i++ {
		c.WrQLenPdf = append(c.WrQLenPdf, reg.NewRaw(stats.CompMemCtrl,
			"mem_ctrls.wrQLenPdf::"+itoa(i), "write queue length PDF bucket"))
	}
	for i := 0; i < 12; i++ {
		c.BytesPerActPdf = append(c.BytesPerActPdf, reg.NewRaw(stats.CompMemCtrl,
			"mem_ctrls.bytesPerActivate::"+itoa(i), "bytes per activate PDF bucket"))
	}
	return c
}

func itoa(n int) string {
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

type pendingWrite struct {
	line  uint64
	ready uint64 // cycle at which the write drains to the array
}

// Controller is the memory controller. It implements cache.Memory.
type Controller struct {
	C Counters

	openRow       []int64 // per bank; -1 = closed
	bytesSinceAct []uint64

	writeQ []pendingWrite
	rdQLen int // modelled read-queue occupancy

	lastDir       int // 0 none, 1 read, 2 write
	runLen        int
	lastBusy      uint64 // cycle the device last finished work
	lastAccounted uint64
}

// New constructs a controller and registers its counters.
func New(reg *stats.Registry) *Controller {
	c := &Controller{
		C:             newCounters(reg),
		openRow:       make([]int64, Banks),
		bytesSinceAct: make([]uint64, Banks),
	}
	for i := range c.openRow {
		c.openRow[i] = -1
	}
	return c
}

func (c *Controller) bank(addr uint64) int {
	return int(addr >> lineShift & (Banks - 1))
}

func (c *Controller) row(addr uint64) int64 {
	return int64(addr >> rowShift)
}

// Access services a read or write of one cache line at cycle and returns the
// latency in CPU cycles.
func (c *Controller) Access(addr uint64, write bool, cycle uint64) uint64 {
	c.accountBackground(cycle)
	c.drainWrites(cycle)

	line := addr >> lineShift

	c.C.WrQLenPdf[minInt(len(c.writeQ), len(c.C.WrQLenPdf)-1)].Inc()
	c.C.RdQLenPdf[minInt(c.rdQLen, len(c.C.RdQLenPdf)-1)].Inc()

	if write {
		c.C.WriteReqs.Inc()
		c.C.WriteBursts.Inc()
		c.C.BytesWritten.Add(float64(lineBytes))
		c.C.PerBankWr[c.bank(addr)].Inc()
		c.turnaround(2)
		// Writes complete into the write queue; the array update is
		// deferred.
		if len(c.writeQ) < WriteQDepth {
			c.writeQ = append(c.writeQ, pendingWrite{line: line, ready: cycle + writeDrain})
			c.C.AvgWrQLen.Add(float64(len(c.writeQ)))
			c.C.WriteEnergy.Add(4)
			c.C.TotalEnergy.Add(4)
			c.busyUntil(cycle + 4)
			return 4 // posted write
		}
		// Queue full: pay a full array access.
		lat := c.arrayAccess(addr, cycle, true)
		c.busyUntil(cycle + lat)
		return lat
	}

	c.C.ReadReqs.Inc()
	c.C.ReadBursts.Inc()
	c.C.PerBankRd[c.bank(addr)].Inc()
	if c.rdQLen < ReadQDepth {
		c.rdQLen++
	}
	c.turnaround(1)

	// Read hit in the write queue: forwarded without touching the array.
	for _, w := range c.writeQ {
		if w.line == line {
			c.C.ServicedByWrQ.Inc()
			c.C.BytesReadWrQ.Add(float64(lineBytes))
			c.busyUntil(cycle + 6)
			return 6
		}
	}

	c.C.BytesReadDRAM.Add(float64(lineBytes))
	lat := c.arrayAccess(addr, cycle, false)
	c.C.TotMemAccLat.Add(float64(lat))
	c.busyUntil(cycle + lat)
	return lat
}

// arrayAccess touches the row buffer of addr's bank.
func (c *Controller) arrayAccess(addr uint64, cycle uint64, write bool) uint64 {
	b := c.bank(addr)
	r := c.row(addr)
	if c.openRow[b] == r {
		c.C.RowHits.Inc()
		c.C.PerBankRowHit[b].Inc()
		c.bytesSinceAct[b] += lineBytes
		c.C.ReadEnergy.Add(2)
		c.C.TotalEnergy.Add(2)
		return rowHitLat
	}
	c.C.RowMisses.Inc()
	c.C.PerBankRowMiss[b].Inc()
	if c.openRow[b] != -1 {
		c.C.Precharges.Inc()
		c.C.PreEnergy.Add(3)
		c.C.TotalEnergy.Add(3)
	}
	// New activation: account bytes served by the previous activation.
	if c.bytesSinceAct[b] > 0 {
		c.C.BytesPerAct.Add(float64(c.bytesSinceAct[b]))
		bkt := 0
		for v := c.bytesSinceAct[b] / 64; v > 0 && bkt < len(c.C.BytesPerActPdf)-1; v >>= 1 {
			bkt++
		}
		c.C.BytesPerActPdf[bkt].Inc()
	}
	c.openRow[b] = r
	c.bytesSinceAct[b] = lineBytes
	c.C.Activations.Inc()
	c.C.PerBankAct[b].Inc()
	c.C.ActEnergy.Add(8)
	c.C.ReadEnergy.Add(2)
	c.C.TotalEnergy.Add(10)
	return rowMissLat
}

// turnaround tracks bus direction switches and the run lengths the paper's
// wrPerTurnAround / rdPerTurnAround features measure.
func (c *Controller) turnaround(dir int) {
	if c.lastDir == dir {
		c.runLen++
		return
	}
	if c.lastDir == 1 {
		c.C.RdPerTurnAround.Add(float64(c.runLen))
		c.C.BusTurnarounds.Inc()
	} else if c.lastDir == 2 {
		c.C.WrPerTurnAround.Add(float64(c.runLen))
		c.C.BusTurnarounds.Inc()
	}
	c.lastDir = dir
	c.runLen = 1
}

// drainWrites retires writes whose drain window elapsed.
func (c *Controller) drainWrites(cycle uint64) {
	live := c.writeQ[:0]
	for _, w := range c.writeQ {
		if w.ready > cycle {
			live = append(live, w)
		} else {
			c.C.WriteEnergy.Add(2)
			c.C.TotalEnergy.Add(2)
		}
	}
	c.writeQ = live
}

func (c *Controller) busyUntil(cycle uint64) {
	if cycle > c.lastBusy {
		c.lastBusy = cycle
	}
	if c.lastBusy > c.lastAccounted {
		// Time while servicing is active time.
		c.C.TimeActive.Add(float64(c.lastBusy - c.lastAccounted))
		c.C.ActBackEnergy.Add(float64(c.lastBusy-c.lastAccounted) * 0.5)
		c.C.TotalEnergy.Add(float64(c.lastBusy-c.lastAccounted) * 0.5)
		c.lastAccounted = c.lastBusy
	}
}

// accountBackground distributes the gap since the device last worked across
// the power states: IDLE for the first idleToPD cycles, power-down until
// pdToSREF, then self-refresh. Long memory-quiet stretches therefore show up
// in selfRefreshEnergy.
func (c *Controller) accountBackground(cycle uint64) {
	if cycle <= c.lastAccounted {
		return
	}
	gap := cycle - c.lastAccounted
	// Reads drain from the modelled read queue at roughly one per
	// row-hit service time.
	drained := int(gap / rowHitLat)
	if drained >= c.rdQLen {
		c.rdQLen = 0
	} else {
		c.rdQLen -= drained
	}
	idle := min64(gap, idleToPD)
	c.C.TimeIdle.Add(float64(idle))
	c.C.PreBackEnergy.Add(float64(idle) * 0.3)
	gap -= idle
	if gap > 0 {
		pd := min64(gap, pdToSREF)
		c.C.TimePowerDown.Add(float64(pd))
		c.C.PrePowerDownE.Add(float64(pd) * 0.1)
		gap -= pd
		if gap > 0 {
			c.C.TimeSelfRefresh.Add(float64(gap))
			c.C.SelfRefreshE.Add(float64(gap) * 0.05)
			c.C.RefreshEnergy.Add(float64(gap) * 0.02)
		}
	}
	c.C.TotalEnergy.Add(float64(cycle-c.lastAccounted) * 0.05)
	c.lastAccounted = cycle
}

// FinishAt closes background accounting at the end of a run.
func (c *Controller) FinishAt(cycle uint64) { c.accountBackground(cycle) }

// BackgroundMark is the controller state FinishAt changes outside the
// counter registry.
type BackgroundMark struct {
	lastAccounted uint64
	rdQLen        int
}

// Mark records the state a FinishAt would change, for Rewind.
func (c *Controller) Mark() BackgroundMark {
	return BackgroundMark{lastAccounted: c.lastAccounted, rdQLen: c.rdQLen}
}

// Rewind undoes a FinishAt since m was taken; the caller restores the
// registry's counter values alongside.
func (c *Controller) Rewind(m BackgroundMark) {
	c.lastAccounted, c.rdQLen = m.lastAccounted, m.rdQLen
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
