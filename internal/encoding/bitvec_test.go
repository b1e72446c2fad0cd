package encoding

import (
	"math/rand"
	"testing"
)

func randBinaryRow(r *rand.Rand, n int) []float64 {
	row := make([]float64, n)
	for i := range row {
		if r.Intn(4) == 0 { // k-sparse-ish
			row[i] = 1
		}
	}
	return row
}

func TestBitVecPackRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 200, 1159} {
		row := randBinaryRow(r, n)
		b := Pack(row)
		for i, v := range row {
			if b.Get(i) != (v != 0) {
				t.Fatalf("n=%d bit %d = %v, want %v", n, i, b.Get(i), v != 0)
			}
		}
		got := b.Unpack(n)
		for i := range row {
			if got[i] != row[i] {
				t.Fatalf("n=%d unpack[%d] = %v, want %v", n, i, got[i], row[i])
			}
		}
		ones := 0
		for _, v := range row {
			if v != 0 {
				ones++
			}
		}
		if b.Ones() != ones {
			t.Fatalf("n=%d Ones = %d, want %d", n, b.Ones(), ones)
		}
	}
}

func TestBitVecGetBeyondLength(t *testing.T) {
	b := NewBitVec(10)
	b.Set(9)
	if b.Get(64) || b.Get(1000) {
		t.Fatal("bits beyond the backing words must read as zero")
	}
}

func TestBitVecCounts(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(300)
		x := randBinaryRow(r, n)
		y := randBinaryRow(r, n)
		a, b := Pack(x), Pack(y)
		and := 0
		for i := range x {
			if x[i] != 0 && y[i] != 0 {
				and++
			}
		}
		if got := a.AndCount(b); got != and {
			t.Fatalf("AndCount = %d, want %d", got, and)
		}
	}
}

func TestBitVecUnequalLengths(t *testing.T) {
	long := NewBitVec(128)
	long.Set(0)
	long.Set(100)
	short := NewBitVec(10)
	short.Set(0)
	if got := long.AndCount(short); got != 1 {
		t.Fatalf("AndCount over unequal lengths = %d, want 1", got)
	}
	if got := short.AndCount(long); got != 1 {
		t.Fatalf("AndCount (short receiver) = %d, want 1", got)
	}
}

func TestPackColumn(t *testing.T) {
	X := [][]float64{
		{0.2, 0.5, 0.9},
		{0.6, 0.4, 0.5},
		{0.5, 0.0, 0.1},
	}
	col := PackColumn(X, 0, 0.5)
	if col.Get(0) || !col.Get(1) || !col.Get(2) {
		t.Fatalf("PackColumn wrong: %v", col)
	}
}

// TestBitVecProject: output bit j mirrors input bit idx[j], across word
// boundaries, and matches projecting the dense row.
func TestBitVecProject(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := 1 + r.Intn(200)
		row := randBinaryRow(r, n)
		idx := r.Perm(n)[:1+r.Intn(n)]
		got := Pack(row).Project(idx)
		if len(got) != (len(idx)+63)/64 {
			t.Fatalf("projected width %d words, want %d", len(got), (len(idx)+63)/64)
		}
		ones := 0
		for j, f := range idx {
			if got.Get(j) != (row[f] != 0) {
				t.Fatalf("bit %d = %v, want row[%d] = %v", j, got.Get(j), f, row[f])
			}
			if row[f] != 0 {
				ones++
			}
		}
		if got.Ones() != ones {
			t.Fatalf("Ones = %d, want %d", got.Ones(), ones)
		}
	}
}

func TestBitVecClear(t *testing.T) {
	b := NewBitVec(130)
	for _, i := range []int{0, 63, 64, 129} {
		b.Set(i)
	}
	b.Clear(64)
	b.Clear(1) // clearing an unset bit is a no-op
	if b.Get(64) || b.Get(1) || !b.Get(63) || !b.Get(129) || b.Ones() != 3 {
		t.Fatalf("Clear wrong: %v", b)
	}
}
