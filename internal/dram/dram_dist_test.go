package dram

import (
	"testing"

	"perspectron/internal/stats"
)

func TestQueueLengthPDFsPopulate(t *testing.T) {
	reg := stats.NewRegistry()
	c := New(reg)
	reg.Seal()
	var cycle uint64
	for i := 0; i < 200; i++ {
		write := i%3 == 0
		cycle += c.Access(uint64(i)*64, write, cycle)
	}
	var rd, wr float64
	for _, b := range c.C.RdQLenPdf {
		rd += b.Value()
	}
	for _, b := range c.C.WrQLenPdf {
		wr += b.Value()
	}
	// Every access records both PDFs once.
	if rd != 200 || wr != 200 {
		t.Fatalf("PDF mass rd=%v wr=%v, want 200 each", rd, wr)
	}
}

func TestBytesPerActivatePDFPopulates(t *testing.T) {
	reg := stats.NewRegistry()
	c := New(reg)
	reg.Seal()
	banks := uint64(Banks)
	// Several same-row accesses, then a row change to flush the histogram.
	for i := uint64(0); i < 8; i++ {
		c.Access(i*64*banks, false, 0)
	}
	c.Access(RowBytes*banks, false, 0)
	var mass float64
	for _, b := range c.C.BytesPerActPdf {
		mass += b.Value()
	}
	if mass == 0 {
		t.Fatalf("bytesPerActivate PDF never updated")
	}
}

func TestPerBankRowStats(t *testing.T) {
	reg := stats.NewRegistry()
	c := New(reg)
	reg.Seal()
	c.Access(0, false, 0)    // bank 0 row miss (activation)
	c.Access(0x40, false, 0) // bank 1 row miss
	banks := uint64(Banks)
	c.Access(64*banks, false, 0) // bank 0 row hit
	if c.C.PerBankRowMiss[0].Value() != 1 || c.C.PerBankRowMiss[1].Value() != 1 {
		t.Fatalf("per-bank row misses: %v/%v",
			c.C.PerBankRowMiss[0].Value(), c.C.PerBankRowMiss[1].Value())
	}
	if c.C.PerBankRowHit[0].Value() != 1 {
		t.Fatalf("per-bank row hits: %v", c.C.PerBankRowHit[0].Value())
	}
	if c.C.PerBankAct[0].Value() != 1 {
		t.Fatalf("per-bank activations: %v", c.C.PerBankAct[0].Value())
	}
}

func TestReadQueueDecays(t *testing.T) {
	reg := stats.NewRegistry()
	c := New(reg)
	reg.Seal()
	for i := 0; i < 10; i++ {
		c.Access(uint64(i)*4096, false, 0) // burst at cycle 0
	}
	if c.rdQLen == 0 {
		t.Fatalf("read queue empty after burst")
	}
	// A much later access sees a drained queue.
	c.Access(0x100000, false, 1_000_000)
	if c.rdQLen > 1 {
		t.Fatalf("read queue did not drain: %d", c.rdQLen)
	}
}
