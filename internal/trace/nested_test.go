package trace

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"perspectron/internal/isa"
	"perspectron/internal/telemetry"
	"perspectron/internal/workload"
	"perspectron/internal/workload/benign"
)

// scheduledPanic runs mcf, but on the streams whose seed's first draw is a
// key of panicAt it panics when it is asked for op panicAt[key]. The
// schedule follows the seed, not the call count, so a collection of one
// config and a collection nesting it meet the same panics on the same
// attempts.
type scheduledPanic struct{ panicAt map[int64]uint64 }

func (p scheduledPanic) Info() workload.Info {
	return workload.Info{Name: "scheduled-panic", Label: workload.Benign, Category: "test"}
}

func (p scheduledPanic) Stream(rng *rand.Rand) isa.Stream {
	at := p.panicAt[rng.Int63()]
	return &panicAtStream{inner: benign.Mcf().Stream(rng), at: at}
}

type panicAtStream struct {
	inner isa.Stream
	at, n uint64 // at 0: never panic
}

func (s *panicAtStream) Next() (*isa.Op, bool) {
	s.n++
	if s.n == s.at {
		panic(fmt.Sprintf("scheduled panic at op %d", s.at))
	}
	return s.inner.Next()
}

// attemptKey is the first draw of the stream attempt a of the first job
// of a collection at seed: the key scheduledPanic looks up.
func attemptKey(seed int64, a int) int64 {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(a)*104_729)).Int63()
}

// sameDataset reports how got differs from want in samples (bit for bit,
// in order), Dropped or Retried; "" if it does not.
func sameDataset(got, want *Dataset) string {
	if len(got.Samples) != len(want.Samples) {
		return fmt.Sprintf("%d samples, want %d", len(got.Samples), len(want.Samples))
	}
	for i := range got.Samples {
		g, w := got.Samples[i], want.Samples[i]
		if g.Program != w.Program || g.Run != w.Run || g.Index != w.Index || len(g.Raw) != len(w.Raw) {
			return fmt.Sprintf("sample %d is %s#%d[%d], want %s#%d[%d]", i, g.Program, g.Run, g.Index, w.Program, w.Run, w.Index)
		}
		for j := range g.Raw {
			if math.Float64bits(g.Raw[j]) != math.Float64bits(w.Raw[j]) {
				return fmt.Sprintf("sample %d counter %d differs", i, j)
			}
		}
	}
	if !reflect.DeepEqual(got.Dropped, want.Dropped) {
		return fmt.Sprintf("Dropped %q, want %q", got.Dropped, want.Dropped)
	}
	if got.Retried != want.Retried || got.Interval != want.Interval {
		return fmt.Sprintf("Retried %d interval %d, want %d and %d", got.Retried, got.Interval, want.Retried, want.Interval)
	}
	return ""
}

// TestCollectNestedMatchesSeparate checks that collecting two configs in
// one pass — the shorter nested in the longer — gives each exactly the
// dataset a collection of that config alone gives, when the first job's
// workload panics after the nested run's end and then before it, the
// other way round, or always on one side.
func TestCollectNestedMatchesSeparate(t *testing.T) {
	const seed = 5
	short := CollectConfig{MaxInsts: 5_000, Interval: 1_000, Seed: seed, Runs: 2, Retries: 2}
	long := CollectConfig{MaxInsts: 12_000, Interval: 2_000, Seed: seed, Runs: 2, Retries: 2}
	const before, after = 3_000, 8_000 // op numbers either side of the short run's end
	for _, tc := range []struct {
		name     string
		schedule []uint64 // the panicking op of attempts 0, 1, 2; 0 = none
		retried  [2]int   // want short, long
		dropped  [2]int
	}{
		{"after-then-before", []uint64{after, before, 0}, [2]int{0, 2}, [2]int{0, 0}},
		{"before-then-after", []uint64{before, after, 0}, [2]int{1, 2}, [2]int{0, 0}},
		{"always-before", []uint64{before, before, before}, [2]int{2, 2}, [2]int{1, 1}},
		{"always-after", []uint64{after, after, after}, [2]int{0, 2}, [2]int{0, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog := scheduledPanic{panicAt: map[int64]uint64{}}
			for a, at := range tc.schedule {
				prog.panicAt[attemptKey(seed, a)] = at
			}
			progs := []workload.Program{prog, benign.Bzip2()}
			ctx := context.Background()
			got := Collect(ctx, progs, short, long) // the longer run carries the shorter
			for i, cfg := range []CollectConfig{short, long} {
				want := Collect(ctx, progs, cfg)[0]
				if d := sameDataset(got[i], want); d != "" {
					t.Errorf("%v: %s", cfg, d)
				}
				if got[i].Retried != tc.retried[i] || len(got[i].Dropped) != tc.dropped[i] {
					t.Errorf("%v: Retried %d, %d dropped; want %d and %d", cfg,
						got[i].Retried, len(got[i].Dropped), tc.retried[i], tc.dropped[i])
				}
			}
		})
	}
}

// TestCollectSimulatesSharedRunsOnce counts machine runs: configs that
// differ only in length and interval share one simulation per (program,
// run), while a config with a Timeout is never nested.
func TestCollectSimulatesSharedRunsOnce(t *testing.T) {
	progs := []workload.Program{benign.Bzip2(), benign.Gcc()}
	a := CollectConfig{MaxInsts: 6_000, Interval: 1_000, Seed: 3, Runs: 1}
	b := CollectConfig{MaxInsts: 9_000, Interval: 3_000, Seed: 3, Runs: 1}
	c := b
	c.MaxInsts = 12_000
	c.Timeout = 1 << 40 // long enough never to cut
	simRuns := func() uint64 { return telemetry.Get().CounterValue("perspectron_sim_runs_total") }
	for _, tc := range []struct {
		cfgs []CollectConfig
		want uint64
	}{
		{[]CollectConfig{a, b}, 2},
		{[]CollectConfig{a, b, c}, 4},
	} {
		before := simRuns()
		Collect(context.Background(), progs, tc.cfgs...)
		if got := simRuns() - before; got != tc.want {
			t.Errorf("%d configs: %d machine runs, want %d", len(tc.cfgs), got, tc.want)
		}
	}
}
