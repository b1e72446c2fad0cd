package dram

import (
	"math/rand"
	"testing"
	"testing/quick"

	"perspectron/internal/stats"
)

func newCtl(t *testing.T) *Controller {
	t.Helper()
	reg := stats.NewRegistry()
	c := New(reg)
	reg.Seal()
	return c
}

func TestRowBufferHitFasterThanMiss(t *testing.T) {
	c := newCtl(t)
	missLat := c.Access(0x0, false, 0)
	hitLat := c.Access(0x40*uint64(Banks), false, 100) // same bank 0, same row
	if hitLat >= missLat {
		t.Fatalf("row hit (%d) not faster than miss (%d)", hitLat, missLat)
	}
	if c.C.RowHits.Value() != 1 || c.C.RowMisses.Value() != 1 {
		t.Fatalf("rowHits=%v rowMisses=%v", c.C.RowHits.Value(), c.C.RowMisses.Value())
	}
}

func TestWriteIsPosted(t *testing.T) {
	c := newCtl(t)
	lat := c.Access(0x1000, true, 0)
	if lat > 10 {
		t.Fatalf("posted write latency = %d", lat)
	}
	if len(c.writeQ) != 1 {
		t.Fatalf("write queue length = %d", len(c.writeQ))
	}
}

func TestReadServicedByWriteQueue(t *testing.T) {
	c := newCtl(t)
	c.Access(0x2000, true, 0)
	lat := c.Access(0x2000, false, 10) // same line while write pending
	if lat > 10 {
		t.Fatalf("write-queue forward latency = %d", lat)
	}
	if c.C.ServicedByWrQ.Value() != 1 || c.C.BytesReadWrQ.Value() != 64 {
		t.Fatalf("servicedByWrQ=%v bytesReadWrQ=%v",
			c.C.ServicedByWrQ.Value(), c.C.BytesReadWrQ.Value())
	}
}

func TestWriteQueueDrains(t *testing.T) {
	c := newCtl(t)
	c.Access(0x2000, true, 0)
	c.Access(0x9000, false, writeDrain+100)
	if len(c.writeQ) != 0 {
		t.Fatalf("write queue did not drain: %d", len(c.writeQ))
	}
}

func TestWriteQueueFullPaysArrayAccess(t *testing.T) {
	c := newCtl(t)
	for i := uint64(0); i < WriteQDepth; i++ {
		if lat := c.Access(i*0x4000, true, 0); lat >= rowHitLat {
			t.Fatalf("write %d into a non-full queue paid %d cycles, want a posted write", i, lat)
		}
	}
	lat := c.Access(WriteQDepth*0x4000, true, 0) // queue full
	if lat < rowHitLat {
		t.Fatalf("full-queue write latency = %d, want an array access", lat)
	}
}

func TestTurnaroundAccounting(t *testing.T) {
	c := newCtl(t)
	// 3 writes then a read: wrPerTurnAround should record 3.
	c.Access(0x0000, true, 0)
	c.Access(0x4000, true, 0)
	c.Access(0x8000, true, 0)
	c.Access(0xc000, false, 0)
	if c.C.WrPerTurnAround.Value() != 3 {
		t.Fatalf("wrPerTurnAround = %v, want 3", c.C.WrPerTurnAround.Value())
	}
	if c.C.BusTurnarounds.Value() != 1 {
		t.Fatalf("turnarounds = %v", c.C.BusTurnarounds.Value())
	}
	// 2 reads then a write: rdPerTurnAround records 3 (the first read above
	// plus these two).
	c.Access(0x10000, false, 0)
	c.Access(0x14000, false, 0)
	c.Access(0x18000, true, 0)
	if c.C.RdPerTurnAround.Value() != 3 {
		t.Fatalf("rdPerTurnAround = %v, want 3", c.C.RdPerTurnAround.Value())
	}
}

func TestBytesPerActivate(t *testing.T) {
	c := newCtl(t)
	banks := uint64(Banks)
	// Three accesses in the same row of bank 0, then a different row of
	// bank 0 forces re-activation, accounting 3*64 bytes.
	c.Access(0x0, false, 0)
	c.Access(0x40*banks, false, 0)
	c.Access(0x80*banks, false, 0)
	c.Access(RowBytes*banks, false, 0)
	if c.C.BytesPerAct.Value() != 192 {
		t.Fatalf("bytesPerActivate = %v, want 192", c.C.BytesPerAct.Value())
	}
	if c.C.Activations.Value() != 2 {
		t.Fatalf("activations = %v", c.C.Activations.Value())
	}
}

func TestPowerStateProgression(t *testing.T) {
	c := newCtl(t)
	c.Access(0x0, false, 0)
	// A long quiet gap must traverse IDLE -> PDN -> SREF.
	c.Access(0x4000, false, idleToPD+pdToSREF+100000)
	if c.C.TimeIdle.Value() == 0 {
		t.Fatalf("no idle time accounted")
	}
	if c.C.TimePowerDown.Value() == 0 {
		t.Fatalf("no power-down time accounted")
	}
	if c.C.TimeSelfRefresh.Value() == 0 || c.C.SelfRefreshE.Value() == 0 {
		t.Fatalf("no self-refresh accounted")
	}
}

func TestBusyStreamNoSelfRefresh(t *testing.T) {
	c := newCtl(t)
	cycle := uint64(0)
	for i := 0; i < 200; i++ {
		cycle += c.Access(uint64(i)*64, false, cycle)
	}
	if c.C.SelfRefreshE.Value() != 0 {
		t.Fatalf("busy stream accrued self-refresh energy %v", c.C.SelfRefreshE.Value())
	}
	if c.C.TimeActive.Value() == 0 {
		t.Fatalf("busy stream accrued no active time")
	}
}

func TestFinishAt(t *testing.T) {
	c := newCtl(t)
	c.Access(0x0, false, 0)
	c.FinishAt(1_000_000)
	if c.C.TimeSelfRefresh.Value() == 0 {
		t.Fatalf("FinishAt did not account trailing background time")
	}
}

func TestPerBankCounters(t *testing.T) {
	c := newCtl(t)
	c.Access(0x0, false, 0)  // bank 0
	c.Access(0x40, false, 0) // bank 1
	c.Access(0x40, true, 0)  // bank 1 write
	if c.C.PerBankRd[0].Value() != 1 || c.C.PerBankRd[1].Value() != 1 {
		t.Fatalf("per-bank reads: %v %v", c.C.PerBankRd[0].Value(), c.C.PerBankRd[1].Value())
	}
	if c.C.PerBankWr[1].Value() != 1 {
		t.Fatalf("per-bank writes: %v", c.C.PerBankWr[1].Value())
	}
}

// Property: accounting conservation — reads either hit the write queue or
// read DRAM; total bytes match request counts.
func TestQuickReadByteConservation(t *testing.T) {
	f := func(ops []uint16) bool {
		reg := stats.NewRegistry()
		c := New(reg)
		reg.Seal()
		var cycle uint64
		reads := 0
		for _, op := range ops {
			addr := uint64(op&0xfff) << 6
			write := op&0x1000 != 0
			if !write {
				reads++
			}
			cycle += c.Access(addr, write, cycle)
		}
		gotBytes := c.C.BytesReadDRAM.Value() + c.C.BytesReadWrQ.Value()
		return gotBytes == float64(reads*64) &&
			c.C.ReadReqs.Value() == float64(reads)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Fatal(err)
	}
}

// Property: state-time accounting covers every cycle gap exactly once (sum
// of state times equals total accounted background time).
func TestQuickStateTimeCoversGaps(t *testing.T) {
	f := func(gaps []uint16) bool {
		reg := stats.NewRegistry()
		c := New(reg)
		reg.Seal()
		var cycle uint64
		for _, g := range gaps {
			cycle += uint64(g)
			c.Access(0x0, false, cycle)
			cycle += 100 // leave room past the service time
		}
		total := c.C.TimeIdle.Value() + c.C.TimePowerDown.Value() +
			c.C.TimeSelfRefresh.Value() + c.C.TimeActive.Value()
		return total <= float64(cycle)+200
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(8))}); err != nil {
		t.Fatal(err)
	}
}
