package serve

// The serve-layer saturation benchmark: ≥1k concurrent streams pushing real
// raw samples through the full ingest stage — consistent-hash routing,
// bounded queues with backpressure pacing, shard scorers batch-scoring over
// the packed kernels — measuring p99 enqueue-to-verdict latency and the
// shed rate at saturation. `make bench` runs it (and the forensics-overhead
// arms below) into bench_serve.out. The accounting invariant (zero unlogged
// sheds) and a sane p99 are asserted, and both are emitted as metrics.

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"perspectron"
)

func BenchmarkServeSaturation(b *testing.B) {
	det, _ := testModels(b)

	// Harvest one episode of real raw samples to replay across streams —
	// realistic feature vectors without paying simulator cost per stream.
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

	const (
		streams          = 1024
		samplesPerStream = 50
	)
	var p99ms, shedRate, unlogged, perSec float64
	for iter := 0; iter < b.N; iter++ {
		s, err := New(Config{
			detector:   det,
			Workloads:  []perspectron.Workload{perspectron.AttackByName("spectreV1", "fr")},
			Shards:     8,
			QueueDepth: 512,
			Batch:      256,
			pace:       100 * time.Microsecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		workers := make([]*worker, streams)
		for i := range workers {
			benign := i%4 != 0 // mostly-benign fleet, like production
			fam := "spectre_v1"
			if benign {
				fam = "benign"
			}
			workers[i] = newWorker(i, fmt.Sprintf("stream-%d", i), fam, benign,
				newLadder(classifierFloor, detectorFloor, hysteresis, false))
		}

		var mu sync.Mutex
		latencies := make([]float64, 0, streams*samplesPerStream)
		var shedRecords int64
		s.onVerdict = func(rec VerdictRecord) {
			mu.Lock()
			if rec.Shed {
				shedRecords++
			} else {
				latencies = append(latencies, rec.LatencyMs)
			}
			mu.Unlock()
		}

		s.produceDone = make(chan struct{})
		var scorerWg sync.WaitGroup
		for _, sh := range s.shards {
			scorerWg.Add(1)
			go func(sh *shard) {
				defer scorerWg.Done()
				s.scoreShard(sh)
			}(sh)
		}

		start := time.Now()
		var producerWg sync.WaitGroup
		for _, w := range workers {
			producerWg.Add(1)
			go func(w *worker) {
				defer producerWg.Done()
				for n := 0; n < samplesPerStream; n++ {
					rs := samples[(w.id+n)%len(samples)]
					if pressure := s.route(w, 0, rs); pressure >= s.cfg.LoadHigh {
						time.Sleep(s.cfg.pace) // the backpressure contract
					}
				}
			}(w)
		}
		producerWg.Wait()
		close(s.produceDone)
		scorerWg.Wait()
		elapsed := time.Since(start)

		var enq, scored, shed int64
		for _, sh := range s.shards {
			enq += sh.enqueued.Load()
			scored += sh.scored.Load()
			shed += sh.shed.Load()
			if d := sh.depth(); d != 0 {
				b.Fatalf("shard %d left %d samples queued", sh.id, d)
			}
		}
		if enq != scored+shed {
			b.Fatalf("samples dropped unlogged: enqueued=%d scored=%d shed=%d", enq, scored, shed)
		}
		if int64(len(latencies)) != scored {
			b.Fatalf("latency records %d != scored %d", len(latencies), scored)
		}
		sort.Float64s(latencies)
		p99ms = latencies[len(latencies)*99/100]
		shedRate = float64(shed) / float64(enq)
		unlogged = float64(shed - shedRecords) // must be 0: every shed logged
		perSec = float64(enq) / elapsed.Seconds()
		if unlogged != 0 {
			b.Fatalf("%v sheds went unlogged", unlogged)
		}
		if p99ms <= 0 || p99ms >= 60_000 {
			b.Fatalf("p99 enqueue-to-verdict latency %v ms outside (0, 60000)", p99ms)
		}
	}
	b.ReportMetric(streams, "streams")
	b.ReportMetric(perSec, "samples/s")
	b.ReportMetric(p99ms, "p99_ms")
	b.ReportMetric(shedRate, "shed_rate")
	b.ReportMetric(unlogged, "unlogged_sheds")
	b.ReportMetric(0, "ns/op") // wall time is the saturation run, not a unit op
}

// scoreSink keeps the score arm's Detect call from being optimized away.
var scoreSink float64

// BenchmarkServeForensicsOverhead prices the per-verdict cost of serve's
// forensics, in the same family as BenchmarkMonitorTelemetryOverhead: the
// "score" arm is bare RawScorer.Detect over the harvested samples, and the
// "verdict" arm is scoreItem at the defaults — trace ID, stage timings and
// histograms, attribution, flight recorder, SLO burn and slow exemplars —
// which is what serve pays per scored sample.
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
		sh := s.shards[0]
		w := newWorker(0, "bench", "spectre_v1", false,
			newLadder(classifierFloor, detectorFloor, hysteresis, false))
		ss := newShardScorer(sh)
		// Build the RawScorer before timing, as the score arm does.
		if _, err := ss.scorerFor(s.Models()); err != nil {
			b.Fatal(err)
		}
		loadMode, _ := sh.load.snapshot()
		// One item is reused: route allocates items on the producer side,
		// and this arm prices the scorer's work per verdict.
		it := &ingestItem{w: w}
		b.ReportAllocs()
		b.ResetTimer()
		now := time.Now()
		for i := 0; i < b.N; i++ {
			// Stamped per item: one stamp for the whole loop would age
			// every item past slowSample and time the slow-verdict event
			// instead of a verdict. As in scoreShard, each verdict's end
			// stamp opens the next item's turn, so the arm reads the clock
			// only where serve does.
			it.sample, it.enqueuedAt, it.dequeuedAt = samples[i%len(samples)], now, now
			var ok bool
			if now, ok = s.scoreItem(ss, it, loadMode, now); !ok {
				b.Fatal("scorer panicked")
			}
		}
	})
}
