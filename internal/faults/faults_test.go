package faults

import (
	"math"
	"math/rand"
	"testing"

	"perspectron/internal/sim"
	"perspectron/internal/workload/benign"
)

func vec(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestDropoutRateAndDeterminism(t *testing.T) {
	s := NewSchedule(7, Dropout{Rate: 0.2})
	a := vec(10_000, 1)
	b := vec(10_000, 1)
	s.ApplyOne(3, a)
	s.ApplyOne(3, b)
	missing := 0
	for i := range a {
		if IsMissing(a[i]) != IsMissing(b[i]) {
			t.Fatalf("same seed+index produced different dropout at %d", i)
		}
		if IsMissing(a[i]) {
			missing++
		}
	}
	rate := float64(missing) / float64(len(a))
	if rate < 0.17 || rate > 0.23 {
		t.Fatalf("dropout rate %.3f, want ~0.2", rate)
	}
	// A different sample index must draw a different pattern.
	c := vec(10_000, 1)
	s.ApplyOne(4, c)
	same := 0
	for i := range a {
		if IsMissing(a[i]) == IsMissing(c[i]) {
			same++
		}
	}
	if same == len(a) {
		t.Fatalf("dropout pattern identical across sample indices")
	}
}

// Coverage returns the fraction of vec that is observable (not missing).
// An empty vector has coverage 1.
func Coverage(vec []float64) float64 {
	if len(vec) == 0 {
		return 1
	}
	ok := 0
	for _, v := range vec {
		if !IsMissing(v) {
			ok++
		}
	}
	return float64(ok) / float64(len(vec))
}

func TestCoverage(t *testing.T) {
	v := []float64{1, 2, Missing(), 4}
	if got := Coverage(v); got != 0.75 {
		t.Fatalf("coverage = %v, want 0.75", got)
	}
	if got := Coverage(nil); got != 1 {
		t.Fatalf("empty coverage = %v, want 1", got)
	}
}

func TestStuckAtPersistsAcrossSamples(t *testing.T) {
	s := NewSchedule(11, StuckAtZero{Frac: 0.3})
	a := vec(2000, 5)
	b := vec(2000, 5)
	s.ApplyOne(0, a)
	s.ApplyOne(9, b)
	stuck := 0
	for i := range a {
		if (a[i] == 0) != (b[i] == 0) {
			t.Fatalf("stuck-at-zero subset changed between samples at %d", i)
		}
		if a[i] == 0 {
			stuck++
		}
	}
	frac := float64(stuck) / float64(len(a))
	if frac < 0.25 || frac > 0.35 {
		t.Fatalf("stuck fraction %.3f, want ~0.3", frac)
	}
}

func TestStuckAtMaxDefaultValue(t *testing.T) {
	s := NewSchedule(11, StuckAtMax{Frac: 1})
	a := vec(4, 5)
	s.ApplyOne(0, a)
	for i, v := range a {
		if v != math.MaxUint32 {
			t.Fatalf("a[%d] = %v, want 2^32-1", i, v)
		}
	}
}

func TestNoisePreservesMissingAndClampsAtZero(t *testing.T) {
	s := NewSchedule(3, Noise{Sigma: 5})
	a := []float64{Missing(), 1, 1, 1, 1, 1, 1, 1}
	s.ApplyOne(0, a)
	if !IsMissing(a[0]) {
		t.Fatalf("noise resurrected a missing value")
	}
	for i, v := range a[1:] {
		if IsMissing(v) || v < 0 {
			t.Fatalf("a[%d] = %v after noise, want finite non-negative", i+1, v)
		}
	}
}

func TestJitterScalesWholeVector(t *testing.T) {
	s := NewSchedule(5, Jitter{Frac: 0.5})
	a := []float64{2, 4, 8}
	s.ApplyOne(0, a)
	// All elements must keep their ratios: a scaled vector.
	if math.Abs(a[1]/a[0]-2) > 1e-9 || math.Abs(a[2]/a[0]-4) > 1e-9 {
		t.Fatalf("jitter broke vector ratios: %v", a)
	}
	if a[0] < 2*0.5 || a[0] > 2*1.5 {
		t.Fatalf("jitter factor out of [0.5,1.5]: %v", a[0]/2)
	}
}

func TestBlackoutComponentWindow(t *testing.T) {
	m := sim.NewMachine()
	b, err := NewBlackout(m.Reg, "dcache", 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Indices) == 0 {
		t.Fatalf("dcache blackout selected no counters")
	}
	s := NewSchedule(1, b)
	n := m.Reg.Len()
	for _, tc := range []struct {
		index int
		want  bool // blacked out?
	}{{0, false}, {1, true}, {2, true}, {3, false}} {
		v := vec(n, 1)
		s.ApplyOne(tc.index, v)
		got := IsMissing(v[b.Indices[0]])
		if got != tc.want {
			t.Fatalf("sample %d: blackout=%v, want %v", tc.index, got, tc.want)
		}
	}
	if _, err := NewBlackout(m.Reg, "warp-drive", 0, 0); err == nil {
		t.Fatalf("unknown component accepted")
	}
}

func TestBlackoutOpenEnded(t *testing.T) {
	b := &Blackout{Indices: []int{0}, From: 2, To: 0}
	s := NewSchedule(1, b)
	v := []float64{1, 1}
	s.ApplyOne(100, v)
	if !IsMissing(v[0]) {
		t.Fatalf("open-ended blackout stopped applying")
	}
}

func TestScheduleComposesInOrder(t *testing.T) {
	// Stuck-at-zero after dropout overwrites missing values with zeros.
	s := NewSchedule(2, Dropout{Rate: 1}, StuckAtZero{Frac: 1})
	v := []float64{3, 3}
	s.ApplyOne(0, v)
	if IsMissing(v[0]) || v[0] != 0 {
		t.Fatalf("composition out of order: %v", v)
	}
	if s.String() != "dropout(1.00) + stuck0(1.00)" {
		t.Fatalf("schedule string = %q", s.String())
	}
	var nilSched *Schedule
	if nilSched.String() != "no faults" {
		t.Fatalf("nil schedule string = %q", nilSched.String())
	}
	nilSched.ApplyOne(0, v) // must not panic
}

// TestScheduleApplyRecordedRun applies a dropout schedule to a recorded
// machine run, trailing partial sample included, the way a recording is
// replayed: about half the values go missing, and the same seed masks the
// same values again.
func TestScheduleApplyRecordedRun(t *testing.T) {
	prog := benign.All()[0]
	var clean [][]float64
	sim.NewMachine().RunStream(prog.Stream(rand.New(rand.NewSource(9))), 35_000, 10_000,
		func(_ int, v []float64) bool {
			clean = append(clean, v)
			return true
		})
	run := func() [][]float64 {
		vecs := make([][]float64, len(clean))
		for i, v := range clean {
			vecs[i] = append([]float64(nil), v...)
		}
		NewSchedule(13, Dropout{Rate: 0.5}).Apply(vecs)
		return vecs
	}
	faulty := run()
	missing := 0
	total := 0
	for _, v := range faulty {
		total += len(v)
		missing += int(float64(len(v)) * (1 - Coverage(v)))
	}
	frac := float64(missing) / float64(total)
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("dropout masked %.3f of values, want ~0.5", frac)
	}
	// The trailing partial sample (35K insts at 10K interval) is faulted too.
	last := faulty[len(faulty)-1]
	if Coverage(last) > 0.7 {
		t.Fatalf("flush-tail sample escaped the schedule (coverage %.3f)", Coverage(last))
	}
	again := run()
	for i := range faulty {
		for j := range faulty[i] {
			a, b := faulty[i][j], again[i][j]
			if (IsMissing(a) != IsMissing(b)) || (!IsMissing(a) && a != b) {
				t.Fatalf("schedule not deterministic at [%d][%d]", i, j)
			}
		}
	}
}
