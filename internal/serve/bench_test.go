package serve

// The verdict-cost benchmark: `make bench` runs both arms into
// bench_serve.out, and `make bench-verdict` gates the verdict arm at under
// four times the score arm.

import (
	"context"
	"testing"
	"time"

	"perspectron"
)

// scoreSink keeps the score arm's Detect call from being optimized away.
var scoreSink float64

// BenchmarkServeForensicsOverhead prices the per-verdict cost of serve's
// forensics, in the same family as BenchmarkMonitorTelemetryOverhead: the
// "score" arm is bare RawScorer.Detect over the harvested samples, and the
// "verdict" arm is scoreItem at the defaults on a worker's own scorer —
// coverage ladder, trace ID, stage timings and histograms, attribution,
// flight recorder, SLO burn and slow exemplars — which is what serve pays
// per scored sample.
func BenchmarkServeForensicsOverhead(b *testing.B) {
	det, _ := testModels(b)
	ctx := context.Background()
	sess, err := perspectron.NewSession(ctx, det, nil, perspectron.SessionConfig{
		Workload: perspectron.AttackByName("spectreV1", "fr"),
		MaxInsts: 60_000,
		Seed:     1,
	})
	if err != nil {
		b.Fatal(err)
	}
	var samples []perspectron.RawSample
	for {
		rs, ok := sess.NextRaw(ctx)
		if !ok {
			break
		}
		samples = append(samples, rs)
	}
	sess.Close()
	if len(samples) == 0 {
		b.Fatal("no raw samples harvested")
	}

	b.Run("score", func(b *testing.B) {
		scorer, err := perspectron.NewRawScorer(det, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			scoreSink, _, _ = scorer.Detect(samples[i%len(samples)])
		}
	})
	b.Run("verdict", func(b *testing.B) {
		s, err := New(Config{
			detector:  det,
			Workloads: []perspectron.Workload{perspectron.AttackByName("spectreV1", "fr")},
		})
		if err != nil {
			b.Fatal(err)
		}
		w := newWorker(0, "bench", "spectre_v1",
			newLadder(classifierFloor, detectorFloor, hysteresis, false))
		// Build the RawScorer before timing, as the score arm does.
		if _, err := w.sc.scorerFor(s.Models()); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Stamped per verdict: one stamp for the whole loop would age
			// every verdict past slowSample and time the slow-verdict event
			// instead. Serve takes the same clock read when NextRaw returns.
			if _, ok := s.scoreItem(w, 0, samples[i%len(samples)], time.Now()); !ok {
				b.Fatal("scorer panicked")
			}
		}
	})
}
