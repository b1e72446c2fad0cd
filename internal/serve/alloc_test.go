package serve

import (
	"context"
	"io"
	"testing"
	"time"

	"perspectron"
	"perspectron/internal/workload"
)

// harvestSample returns the first raw sample of w whose detector verdict
// is wantFlagged.
func harvestSample(t *testing.T, det *perspectron.Detector, w perspectron.Workload, wantFlagged bool) perspectron.RawSample {
	t.Helper()
	ctx := context.Background()
	sess, err := perspectron.NewSession(ctx, det, nil, perspectron.SessionConfig{Workload: w, MaxInsts: 60_000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	scorer, err := perspectron.NewRawScorer(det, nil)
	if err != nil {
		t.Fatal(err)
	}
	for {
		rs, ok := sess.NextRaw(ctx)
		if !ok {
			t.Fatalf("%s produced no sample with flagged=%v", w.Info().Name, wantFlagged)
		}
		if _, flagged, _ := scorer.Detect(rs); flagged == wantFlagged {
			return rs
		}
	}
}

// TestVerdictAllocations guards scoreItem's allocation budget at serve's
// defaults: an attributed verdict allocates only what its record keeps —
// the fired slots, the attribution and the trace ID — and an unattributed
// one only its trace ID, with or without a verdict log attached. Telemetry
// handles, the flight-recorder push, the SLO burn, the stage clocks and
// the log's JSON encoding allocate nothing.
func TestVerdictAllocations(t *testing.T) {
	det, _ := testModels(t)
	var benignProg perspectron.Workload
	for _, w := range perspectron.TrainingWorkloads() {
		if w.Info().Label == workload.Benign {
			benignProg = w
			break
		}
	}
	if benignProg == nil {
		t.Fatal("no benign training workload")
	}
	attack := perspectron.AttackByName("spectreV1", "fr")
	cases := []allocCase{
		{"attributed", harvestSample(t, det, attack, true), true, 3},
		{"unattributed", harvestSample(t, det, benignProg, false), false, 1},
	}

	for _, logged := range []bool{false, true} {
		cfg := Config{detector: det, Workloads: []perspectron.Workload{attack}}
		name := "nolog"
		if logged {
			cfg.VerdictLog, name = io.Discard, "logged"
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			if logged && raceEnabled {
				// The log's JSON encoder draws its buffer from a sync.Pool,
				// which the race detector empties at random.
				t.Skip("pooled encoder buffers allocate at random under -race")
			}
			checkVerdictAllocs(t, s, cases)
		})
	}
}

type allocCase struct {
	name       string
	sample     perspectron.RawSample
	attributed bool
	maxAllocs  float64
}

func checkVerdictAllocs(t *testing.T, s *Supervisor, cases []allocCase) {
	sh := s.shards[0]
	ss := newShardScorer(sh)
	loadMode, _ := sh.load.snapshot()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorker(0, "alloc", "spectre_v1", false,
				newLadder(classifierFloor, detectorFloor, hysteresis, false))
			it := &ingestItem{w: w, sample: tc.sample}
			var gotAttr bool
			s.onVerdict = func(rec VerdictRecord) { gotAttr = rec.Attr != nil }
			defer func() { s.onVerdict = nil }()
			allocs := testing.AllocsPerRun(200, func() {
				now := time.Now()
				it.enqueuedAt, it.dequeuedAt = now, now
				if _, ok := s.scoreItem(ss, it, loadMode, now); !ok {
					t.Fatal("scorer panicked")
				}
			})
			if gotAttr != tc.attributed {
				t.Fatalf("verdict attributed = %v, want %v", gotAttr, tc.attributed)
			}
			if allocs > tc.maxAllocs {
				t.Fatalf("%s verdict allocates %v times, want at most %v", tc.name, allocs, tc.maxAllocs)
			}
		})
	}
}
