package encoding

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Bits is the dense test oracle for BitsPacked: the same fired-bit set as a
// []bool, with the same masking and avail count. The result is written into
// dst (pass nil to allocate; a short dst is reallocated).
func (e *Encoding) Bits(raw []float64, indices []int, point int, dst []bool) (bits []bool, avail int) {
	if len(dst) < len(indices) {
		dst = make([]bool, len(indices))
	}
	dst = dst[:len(indices)]
	for slot, j := range indices {
		dst[slot] = false
		if j < 0 || j >= len(raw) {
			continue
		}
		v := raw[j]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		avail++
		mx := e.Max(slot, point)
		if mx <= 0 {
			continue
		}
		if v/mx >= BinarizeThreshold {
			dst[slot] = true
		}
	}
	return dst, avail
}

// Margin is the dense test oracle for MarginPacked over a []bool fired set.
func Margin(bias float64, w []float64, fired []bool) float64 {
	s := bias
	norm := math.Abs(bias)
	for i, f := range fired {
		if f {
			s += w[i]
			norm += math.Abs(w[i])
		}
	}
	if norm == 0 {
		return 0
	}
	v := s / norm
	if v > 1 {
		v = 1
	} else if v < -1 {
		v = -1
	}
	return v
}

// Identity returns the identity slot→counter mapping of width n.
func Identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestObserveAndMax(t *testing.T) {
	e := New(2)
	e.Observe([][]float64{{4, 1}, {2, 8}})
	e.Observe([][]float64{{6, 0}})

	if e.NumFeatures() != 2 || e.NumPoints() != 2 {
		t.Fatalf("shape = (%d, %d), want (2, 2)", e.NumFeatures(), e.NumPoints())
	}
	if e.GlobalMax[0] != 6 || e.GlobalMax[1] != 8 {
		t.Fatalf("global maxima = %v", e.GlobalMax)
	}
	// Per-point maxima take precedence where positive…
	if e.Max(0, 0) != 6 || e.Max(1, 1) != 8 {
		t.Fatalf("per-point maxima: %v %v", e.Max(0, 0), e.Max(1, 1))
	}
	// …and fall back to global when zero, out of range, or point = -1.
	if e.Max(1, 0) != 1 {
		t.Fatalf("Max(1,0) = %v, want per-point 1", e.Max(1, 0))
	}
	e.PerPoint[0][1] = 0
	if e.Max(1, 0) != 8 {
		t.Fatalf("zero per-point did not fall back to global")
	}
	if e.Max(0, -1) != 6 || e.Max(0, 99) != 6 {
		t.Fatalf("out-of-range point did not fall back to global")
	}

	// A nil PerPoint normalizes by the global column only.
	e.PerPoint = nil
	if e.Max(0, 0) != 6 || e.Max(1, 1) != 8 {
		t.Fatalf("nil PerPoint ignored the global column: %v %v", e.Max(0, 0), e.Max(1, 1))
	}
}

func TestObserveWidthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("width mismatch did not panic")
		}
	}()
	New(2).Observe([][]float64{{1, 2, 3}})
}

func TestScaleAndBinarize(t *testing.T) {
	e := New(3)
	e.Observe([][]float64{{10, 4, 0}})

	s := e.Scale([]float64{5, 8, 7}, 0, nil)
	// v/M clamped to 1; a counter that never fired scales to 0.
	if s[0] != 0.5 || s[1] != 1 || s[2] != 0 {
		t.Fatalf("scaled = %v", s)
	}
	// Binarization: a counter fires when v/M reaches the threshold; one
	// that never fired in training (M = 0) never fires.
	if !e.fires(0, 0, 5) || e.fires(1, 0, 1) || e.fires(2, 0, 7) {
		t.Fatalf("fired = %v %v %v, want true false false",
			e.fires(0, 0, 5), e.fires(1, 0, 1), e.fires(2, 0, 7))
	}
	// The firing cut is exactly BinarizeThreshold, inclusive.
	if e.fires(0, 0, 10*BinarizeThreshold-1e-9) || !e.fires(0, 0, 10*BinarizeThreshold) {
		t.Fatalf("firing cut is not the inclusive BinarizeThreshold")
	}
	// A fault sentinel never fires.
	if e.fires(0, 0, math.NaN()) {
		t.Fatalf("NaN fired")
	}
}

// Property: scaling stays within [0,1] and a feature fires exactly when
// its scaled statistic reaches BinarizeThreshold, for arbitrary
// non-negative observations.
func TestQuickScaleInRange(t *testing.T) {
	f := func(raw []uint16, probe []uint16) bool {
		n := len(raw)
		if n == 0 || len(probe) < n {
			return true
		}
		e := New(n)
		obs := make([]float64, n)
		for i, v := range raw {
			obs[i] = float64(v)
		}
		e.Observe([][]float64{obs})
		p := make([]float64, n)
		for i := range p {
			p[i] = float64(probe[i])
		}
		scaled := e.Scale(p, 0, nil)
		for i, s := range scaled {
			if s < 0 || s > 1 || e.fires(i, 0, p[i]) != (s >= BinarizeThreshold) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestBitsMasking(t *testing.T) {
	e := &Encoding{GlobalMax: []float64{10, 10, 10, 0}}
	raw := []float64{9, math.NaN(), math.Inf(1), 3}
	// Slots: healthy-firing, NaN, Inf, never-fired-max, unresolved, OOB.
	bits, avail := e.Bits(raw, []int{0, 1, 2, 3, -1, 17}, -1, nil)
	want := []bool{true, false, false, false, false, false}
	for i := range want {
		if bits[i] != want[i] {
			t.Fatalf("bits = %v, want %v", bits, want)
		}
	}
	// NaN/Inf/unresolved/OOB are unobservable; the zero-max slot IS
	// observable (the counter was read, it just never fired in training).
	if avail != 2 {
		t.Fatalf("avail = %d, want 2", avail)
	}
	// dst reuse keeps the same backing array.
	buf := make([]bool, 6)
	out, _ := e.Bits(raw, []int{0, 1, 2, 3, -1, 17}, -1, buf)
	if &out[0] != &buf[0] {
		t.Fatalf("dst was reallocated despite sufficient capacity")
	}
}

func TestMargin(t *testing.T) {
	w := []float64{0.5, -0.25}
	if m := Margin(0.25, w, []bool{true, true}); m != 0.5 {
		t.Fatalf("margin = %v, want (0.25+0.5-0.25)/(0.25+0.5+0.25) = 0.5", m)
	}
	if m := Margin(0, w, []bool{false, false}); m != 0 {
		t.Fatalf("zero-norm margin = %v, want 0", m)
	}
	if m := Margin(-1, nil, nil); m != -1 {
		t.Fatalf("bias-only margin = %v, want -1", m)
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(3)
	if len(id) != 3 || id[0] != 0 || id[2] != 2 {
		t.Fatalf("identity = %v", id)
	}
}

// TestBitsPackedMatchesBits: the packed serving-path kernels must be
// bit-identical to the dense Bits+Margin pair over adversarial inputs —
// masked counters, NaN/Inf faults, never-fired maxima, >64 features (word
// boundaries), negative weights.
func TestBitsPackedMatchesBits(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const nf = 131 // spans three words with a ragged tail
	e := New(nf)
	maxima := make([]float64, nf)
	for i := range maxima {
		if rng.Float64() < 0.1 {
			maxima[i] = 0 // never fired in training
		} else {
			maxima[i] = 1 + rng.Float64()*9
		}
	}
	copy(e.GlobalMax, maxima)
	e.PerPoint = [][]float64{append([]float64(nil), maxima...)}

	w := make([]float64, nf)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	indices := make([]int, nf)
	raw := make([]float64, nf+10)
	var packed BitVec
	for trial := 0; trial < 200; trial++ {
		for i := range indices {
			switch {
			case rng.Float64() < 0.1:
				indices[i] = -1 // unresolved counter
			case rng.Float64() < 0.05:
				indices[i] = len(raw) + 3 // out of range
			default:
				indices[i] = rng.Intn(len(raw))
			}
		}
		for i := range raw {
			switch {
			case rng.Float64() < 0.15:
				raw[i] = math.NaN()
			case rng.Float64() < 0.05:
				raw[i] = math.Inf(1)
			default:
				raw[i] = rng.Float64() * 12
			}
		}
		point := rng.Intn(3) - 1 // exercise per-point and global maxima
		dense, availD := e.Bits(raw, indices, point, nil)
		var availP int
		packed, availP = e.BitsPacked(raw, indices, point, packed)
		if availD != availP {
			t.Fatalf("trial %d: avail dense=%d packed=%d", trial, availD, availP)
		}
		for i, f := range dense {
			if packed.Get(i) != f {
				t.Fatalf("trial %d: bit %d dense=%v packed=%v", trial, i, f, packed.Get(i))
			}
		}
		bias := rng.NormFloat64()
		if got, want := MarginPacked(bias, w, packed), Margin(bias, w, dense); got != want {
			t.Fatalf("trial %d: MarginPacked = %v, Margin = %v", trial, got, want)
		}
	}
	// dst reuse: a sufficiently long dst keeps its backing array and is
	// cleared before packing.
	buf := NewBitVec(nf)
	for i := range buf {
		buf[i] = ^uint64(0)
	}
	out, _ := e.BitsPacked(make([]float64, nf), Identity(nf), -1, buf)
	if &out[0] != &buf[0] {
		t.Fatalf("dst was reallocated despite sufficient capacity")
	}
	if out.Ones() != 0 {
		t.Fatalf("dst not cleared: %d stale bits", out.Ones())
	}
}

func TestMarginPackedZeroNorm(t *testing.T) {
	if m := MarginPacked(0, []float64{1, 2}, NewBitVec(2)); m != 0 {
		t.Fatalf("zero-norm packed margin = %v, want 0", m)
	}
	// Clamping matches Margin.
	v := NewBitVec(1)
	v.Set(0)
	if m := MarginPacked(5, []float64{1}, v); m != 1 {
		t.Fatalf("packed margin = %v, want clamp to 1", m)
	}
}
