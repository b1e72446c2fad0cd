package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"perspectron/internal/workload"
	"perspectron/internal/workload/attacks"
)

// nestSpec is one run's fetch budget and sampling interval.
type nestSpec struct{ insts, interval uint64 }

// cutCtx is a context whose Err turns Canceled on its n-th call. A run
// polls Err at fetch 0 and every 1024 fetches after, so the cut lands on
// the same fetch in every run given a fresh cutCtx with the same n.
type cutCtx struct {
	context.Context
	calls, n int
}

func (c *cutCtx) Err() error {
	c.calls++
	if c.calls >= c.n {
		return context.Canceled
	}
	return nil
}

// newCtx returns the context one run of a case polls: background, or a
// fresh cutCtx when cut > 0.
func newCtx(cut int) context.Context {
	if cut > 0 {
		return &cutCtx{Context: context.Background(), n: cut}
	}
	return context.Background()
}

// runFinal is what a run leaves: its samples and the machine's final
// counter values and cycle.
type runFinal struct {
	samples [][]float64
	counts  []float64
	cycle   uint64
}

// separate runs prog at seed alone on a fresh machine.
func separate(prog workload.Program, seed int64, cut int, s nestSpec) runFinal {
	m := NewMachine()
	r := m.Start(newCtx(cut), prog.Stream(rand.New(rand.NewSource(seed))), s.insts, s.interval)
	var out runFinal
	for v, ok := r.Next(); ok; v, ok = r.Next() {
		out.samples = append(out.samples, v)
	}
	out.counts, out.cycle = m.Reg.Snapshot(nil), m.Pipe.Cycle()
	return out
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// diffSamples describes the first difference between two sample series,
// or returns "" when they are bit-identical.
func diffSamples(got, want [][]float64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d samples, want %d", len(got), len(want))
	}
	for i := range got {
		if !sameBits(got[i], want[i]) {
			return fmt.Sprintf("sample %d differs", i)
		}
	}
	return ""
}

// TestNestedRunsMatchSeparateRuns is the drain probe's bit-identity
// contract: a run carrying nested runs delivers, for itself and for each
// nested run, exactly the samples a separate run of that budget and
// interval delivers, and ends on the same machine state as the outer run
// alone. Budgets fall mid-interval (tails flushed and not), two nested
// runs share a budget, one shares the outer budget, and in the cut case
// the context ends the outer run before any nested budget.
func TestNestedRunsMatchSeparateRuns(t *testing.T) {
	progs := append(goldenPrograms(), attacks.AllPolymorphic("fr")...)
	outer := nestSpec{16_000, 2_000}
	nested := []nestSpec{
		{5_600, 1_000},  // 600-instruction tail: flushed
		{9_000, 4_000},  // 1,000 of 4,000: dropped
		{9_000, 2_500},  // shares the budget above; 1,500 of 2,500: flushed
		{16_000, 1_500}, // the outer budget: ends in the outer drain
	}
	for _, tc := range []struct {
		name string
		cut  int // the cutCtx call that cancels; 0 = never
	}{
		{"full", 0},
		{"cut-before-nested", 4}, // cancelled at the fetch-3072 poll
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, prog := range progs {
				name := prog.Info().Name
				const seed = 7
				m := NewMachine()
				r := m.Start(newCtx(tc.cut), prog.Stream(rand.New(rand.NewSource(seed))), outer.insts, outer.interval)
				ns := make([]*Nested, len(nested))
				for i, s := range nested {
					ns[i] = r.Nest(s.insts, s.interval)
				}
				var got runFinal
				for v, ok := r.Next(); ok; v, ok = r.Next() {
					got.samples = append(got.samples, v)
				}
				want := separate(prog, seed, tc.cut, outer)
				if d := diffSamples(got.samples, want.samples); d != "" {
					t.Errorf("%s outer: %s", name, d)
				}
				if !sameBits(m.Reg.Snapshot(nil), want.counts) || m.Pipe.Cycle() != want.cycle {
					t.Errorf("%s outer: final machine state differs from the run alone", name)
				}
				for i, s := range nested {
					if !ns[i].Done() {
						t.Fatalf("%s nested %v: not done after the outer run", name, s)
					}
					if d := diffSamples(ns[i].Samples(), separate(prog, seed, tc.cut, s).samples); d != "" {
						t.Errorf("%s nested %v: %s", name, s, d)
					}
				}
			}
		})
	}
}

// TestNestRejectsLongerRun checks a nested budget may not exceed the
// outer run's, an unbounded one included.
func TestNestRejectsLongerRun(t *testing.T) {
	prog := goldenPrograms()[0]
	for _, insts := range []uint64{20_001, 0} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Nest(%d) under a 20,000-instruction run did not panic", insts)
				}
			}()
			r := NewMachine().Start(context.Background(), prog.Stream(rand.New(rand.NewSource(1))), 20_000, 1_000)
			r.Nest(insts, 1_000)
		}()
	}
}
