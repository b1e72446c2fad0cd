package isa

import (
	"testing"
	"unsafe"
)

// TestOpIsOneCacheLine pins Op at 64 bytes: the pipeline copies ops by
// value on its hot path, and one more field past a line doubles that copy.
func TestOpIsOneCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(Op{}); n != 64 {
		t.Fatalf("sizeof(Op) = %d bytes, want 64", n)
	}
}

func TestOpClassNames(t *testing.T) {
	for c := OpClass(0); c < NumOpClasses; c++ {
		if c.String() == "" || c.String() == "invalid" {
			t.Fatalf("class %d unnamed", c)
		}
	}
	if NoOpClass.String() != "No_OpClass" {
		t.Fatalf("NoOpClass = %q", NoOpClass.String())
	}
	if MemRead.String() != "MemRead" {
		t.Fatalf("MemRead = %q", MemRead.String())
	}
	if OpClass(-1).String() != "invalid" || OpClass(999).String() != "invalid" {
		t.Fatalf("out-of-range class names")
	}
}

func TestOpPredicates(t *testing.T) {
	cases := []struct {
		kind        Kind
		mem, ctrl   bool
		serializing bool
	}{
		{KindPlain, false, false, false},
		{KindLoad, true, false, false},
		{KindStore, true, false, false},
		{KindBranch, false, true, false},
		{KindCall, false, true, false},
		{KindRet, false, true, false},
		{KindIndirect, false, true, false},
		{KindFlush, false, false, true},
		{KindFence, false, false, true},
		{KindSerialize, false, false, true},
		{KindQuiesce, false, false, false},
		{KindNop, false, false, false},
	}
	for _, c := range cases {
		op := Op{Kind: c.kind}
		if op.IsMem() != c.mem {
			t.Errorf("kind %d IsMem = %v", c.kind, op.IsMem())
		}
		if op.IsControl() != c.ctrl {
			t.Errorf("kind %d IsControl = %v", c.kind, op.IsControl())
		}
		if op.IsSerializing() != c.serializing {
			t.Errorf("kind %d IsSerializing = %v", c.kind, op.IsSerializing())
		}
	}
}

func TestDefaultClass(t *testing.T) {
	if DefaultClass(KindLoad) != MemRead {
		t.Fatalf("load class")
	}
	if DefaultClass(KindStore) != MemWrite {
		t.Fatalf("store class")
	}
	if DefaultClass(KindBranch) != IntAlu {
		t.Fatalf("branch class")
	}
	if DefaultClass(KindFlush) != NoOpClass {
		t.Fatalf("flush class")
	}
}

func TestSliceStream(t *testing.T) {
	s := NewSliceStream([]Op{{PC: 1}, {PC: 2}})
	op, ok := s.Next()
	if !ok || op.PC != 1 {
		t.Fatalf("first op wrong")
	}
	op, ok = s.Next()
	if !ok || op.PC != 2 {
		t.Fatalf("second op wrong")
	}
	if _, ok := s.Next(); ok {
		t.Fatalf("stream did not end")
	}
}

func TestFuncStream(t *testing.T) {
	n := 0
	var op Op
	s := FuncStream(func() (*Op, bool) {
		n++
		op = Op{PC: uint64(n)}
		return &op, n <= 2
	})
	if op, ok := s.Next(); !ok || op.PC != 1 {
		t.Fatalf("func stream first op wrong")
	}
	s.Next()
	if _, ok := s.Next(); ok {
		t.Fatalf("func stream did not end")
	}
}
