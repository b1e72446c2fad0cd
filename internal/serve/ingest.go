package serve

// The bounded ingest stage: the overload-control seam between stream
// workers (producers) and scoring (consumers). Workers never score inline —
// each raw sample is routed over the consistent-hash ring to a shard's
// fixed-capacity ring buffer, and one scorer goroutine per shard drains
// batches through a single bit-packed RawScorer sweep. The queue depth cap
// is the overload contract: when a shard fills, admission control sheds
// deterministically (oldest benign-stream sample first, then oldest
// overall; an incoming benign sample yields to queued attack samples), and
// every shed is counted and stamped into the verdict log — the service
// degrades loudly, never silently. Sustained queue pressure additionally
// walks the shard's load rung down the degradation ladder (see degrade.go)
// so scoring gets cheaper before latency collapses.

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"perspectron"
	"perspectron/internal/telemetry"
)

// ingestItem is one raw sample in flight between a stream worker and a
// shard scorer.
type ingestItem struct {
	w          *worker
	episode    int
	sample     perspectron.RawSample
	enqueuedAt time.Time
	// dequeuedAt is stamped (once per batch) when the scorer drains the
	// item, splitting end-to-end latency into queue wait vs scoring stages.
	dequeuedAt time.Time
}

// trace renders the item's stream-scoped trace ID: worker/episode/sample,
// unique per admitted sample and stable across the verdict log, the
// slow-verdict exemplars and /debug/verdicts. The appends run into a stack
// buffer, so the returned string is the only allocation.
func (it *ingestItem) trace() string {
	var buf [64]byte
	b := append(buf[:0], it.w.name...)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(it.episode), 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(it.sample.Sample), 10)
	return string(b)
}

// shard is one scoring lane: a bounded ring buffer of pending samples, a
// load-rung ladder fed by queue pressure, and a breaker that opens after
// repeated scorer panics (marking the shard down so the ring routes around
// it).
type shard struct {
	id  int
	cap int

	load    *ladder  // load rung: observes headroom = 1 - pressure
	breaker *breaker // consecutive scorer-batch panics open it

	mu   sync.Mutex
	buf  []*ingestItem // fixed-capacity ring
	head int           // index of the oldest item
	n    int           // items queued

	notify chan struct{} // 1-buffered enqueue wake-up for the scorer

	enqueued atomic.Int64
	scored   atomic.Int64 // dequeued and logged (including error verdicts)
	shed     atomic.Int64
	panics   atomic.Int64
	down     atomic.Bool   // breaker-open mirror the ring can read lock-free
	attrTick atomic.Uint64 // benign-sample attribution round-robin counter

	// shedTotal is perspectron_serve_shed_total{shard}, resolved once here:
	// producers shed through it without a registry lookup.
	shedTotal *telemetry.Counter
}

func newShard(id, capacity int, load *ladder, brk *breaker) *shard {
	return &shard{
		id:        id,
		cap:       capacity,
		load:      load,
		breaker:   brk,
		buf:       make([]*ingestItem, capacity),
		notify:    make(chan struct{}, 1),
		shedTotal: telemetry.Get().Counter(telemetry.Name("perspectron_serve_shed_total", "shard", strconv.Itoa(id))),
	}
}

// depth returns the number of queued items.
func (sh *shard) depth() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.n
}

// pressure returns depth/capacity in [0, 1].
func (sh *shard) pressure() float64 {
	return float64(sh.depth()) / float64(sh.cap)
}

// enqueue admits it, shedding if the ring is full. It returns the item that
// was shed (nil when the ring had room), whether it itself was admitted
// (false only when the incoming item was the shed victim), and the
// post-admission pressure. The caller logs the shed — shedding under the
// shard lock would invert the lock order with the verdict log.
//
// Shed policy, deterministic by construction: evict the oldest queued
// sample from a benign-labeled stream first (attack-stream verdicts are the
// ones worth latency); if every queued sample is from an attack stream, an
// incoming benign sample yields to them, and an incoming attack sample
// evicts the oldest queued one.
func (sh *shard) enqueue(it *ingestItem) (victim *ingestItem, admitted bool, pressure float64) {
	sh.mu.Lock()
	defer func() {
		pressure = float64(sh.n) / float64(sh.cap)
		sh.mu.Unlock()
		select { // wake the scorer; a pending wake-up covers this enqueue
		case sh.notify <- struct{}{}:
		default:
		}
	}()
	if sh.n == sh.cap {
		if i, ok := sh.findOldestBenign(); ok {
			victim = sh.removeAt(i)
		} else if it.w.benign {
			sh.enqueued.Add(1) // it entered admission control, then was shed
			sh.shed.Add(1)
			return it, false, 0
		} else {
			victim = sh.removeAt(0) // oldest overall
		}
		sh.shed.Add(1)
	}
	sh.buf[(sh.head+sh.n)%sh.cap] = it
	sh.n++
	sh.enqueued.Add(1)
	return victim, true, 0
}

// findOldestBenign scans oldest→newest for the first benign-stream item,
// returning its ring offset. Only called on a full ring, i.e. already
// shedding — the O(depth) scan is the cost of shedding precisely, not of
// the fast path.
func (sh *shard) findOldestBenign() (int, bool) {
	for i := 0; i < sh.n; i++ {
		if sh.buf[(sh.head+i)%sh.cap].w.benign {
			return i, true
		}
	}
	return 0, false
}

// removeAt removes and returns the item at ring offset i (0 = oldest),
// shifting the gap toward the head (cheapest for the near-head offsets the
// shed policy picks).
func (sh *shard) removeAt(i int) *ingestItem {
	idx := (sh.head + i) % sh.cap
	out := sh.buf[idx]
	for ; i > 0; i-- {
		prev := (sh.head + i - 1) % sh.cap
		cur := (sh.head + i) % sh.cap
		sh.buf[cur] = sh.buf[prev]
	}
	sh.buf[sh.head] = nil
	sh.head = (sh.head + 1) % sh.cap
	sh.n--
	return out
}

// dequeueBatch pops up to max oldest items.
func (sh *shard) dequeueBatch(max int, dst []*ingestItem) []*ingestItem {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	k := sh.n
	if k > max {
		k = max
	}
	for i := 0; i < k; i++ {
		idx := (sh.head + i) % sh.cap
		dst = append(dst, sh.buf[idx])
		sh.buf[idx] = nil
	}
	sh.head = (sh.head + k) % sh.cap
	sh.n -= k
	return dst
}

// route hashes the worker's stream onto a healthy shard and enqueues one
// raw sample, logging any shed verdict and returning the target shard's
// post-admission pressure (the producer's backpressure signal).
func (s *Supervisor) route(w *worker, episode int, rs perspectron.RawSample) float64 {
	sh := s.shards[s.ring.lookup(w.name, s.shardHealthy)]
	it := &ingestItem{w: w, episode: episode, sample: rs, enqueuedAt: time.Now()}
	victim, admitted, pressure := sh.enqueue(it)
	if victim != nil || !admitted {
		shedIt := victim
		if shedIt == nil {
			shedIt = it
		}
		s.logShed(sh, shedIt)
	}
	return pressure
}

// shardHealthy reports whether shard i can accept new streams — the ring's
// liveness callback.
func (s *Supervisor) shardHealthy(i int) bool { return !s.shards[i].down.Load() }

// logShed stamps one shed sample into the verdict log and telemetry. A shed
// is never silent: it produces a verdict record (mode "shed") exactly like
// a scored sample would, so downstream consumers see the gap.
func (s *Supervisor) logShed(sh *shard, it *ingestItem) {
	it.w.sheds.Add(1)
	sh.shedTotal.Inc()
	det, _ := s.models.Load().Versions()
	rec := VerdictRecord{
		Worker:  it.w.name,
		Episode: it.episode,
		Sample:  it.sample.Sample,
		Mode:    "shed",
		Version: det,
		Shed:    true,
		Shard:   sh.id,
		// A shed victim's whole life was queue wait; the trace still joins
		// it to its stream.
		Trace:   it.trace(),
		QueueMs: float64(time.Since(it.enqueuedAt)) / float64(time.Millisecond),
	}
	s.slo.observe(0, true)
	s.log.record(rec)
	s.observe(rec)
}

// producersDone reports whether every stream worker has exited — the
// scorers' signal to finish draining and stop.
func (s *Supervisor) producersDone() bool {
	select {
	case <-s.produceDone:
		return true
	default:
		return false
	}
}

// scoreShard is one shard's consumer loop: wait for work, drain a batch,
// score it through the packed RawScorer, repeat. It exits only when the
// producers are done AND the queue is empty, so no admitted sample is ever
// dropped unlogged. A panic in a batch (scoring bug, chaos injection) is
// recovered per item — the poisoned item still yields a verdict record
// (mode "error") — and counted against the shard breaker: repeated panics
// mark the shard down, the ring routes new streams around it, and after the
// cooldown a trial batch either recovers it or re-opens.
func (s *Supervisor) scoreShard(sh *shard) {
	reg := telemetry.Get()
	reg.Gauge("perspectron_serve_scorers_running").Add(1)
	defer reg.Gauge("perspectron_serve_scorers_running").Add(-1)
	ss := newShardScorer(sh)
	batch := make([]*ingestItem, 0, s.cfg.Batch)
	for {
		if sh.depth() == 0 {
			if s.producersDone() {
				return
			}
			// Every enqueue after the depth check leaves a wake-up here, and
			// produceDone closes once the producers are done, so no timer is
			// needed. A periodic one would fire at producers' yields and
			// take the runnext slot from the scorer a producer had just
			// woken, leaving that one behind a simulating producer.
			select {
			case <-sh.notify:
			case <-s.produceDone:
			}
			continue
		}
		// Breaker gate: an open shard holds off between trial batches — but
		// never during drain, when finishing the queue outranks caution.
		if !s.producersDone() && !sh.breaker.allow() {
			sh.down.Store(true)
			select {
			case <-time.After(s.cfg.breakerCooldown / 4):
			case <-s.produceDone:
			}
			continue
		}
		// Fold queue pressure into the load rung once per batch, before
		// draining: the rung must see the backlog, not the post-drain lull.
		if _, changed := sh.load.observeLoad(sh.pressure()); changed {
			mode, _ := sh.load.snapshot()
			reg.Counter(telemetry.Name("perspectron_serve_load_mode_changes_total", "mode", mode.String())).Inc()
		}
		loadMode, _ := sh.load.snapshot()
		batch = sh.dequeueBatch(s.cfg.Batch, batch[:0])
		// One clock read covers the whole batch: every item left the queue
		// at this instant, and per-item batch wait accrues from here until
		// its scoring turn. Each verdict's closing clock read opens the
		// next item's turn.
		now := time.Now()
		for _, it := range batch {
			it.dequeuedAt = now
		}
		panicked := false
		for _, it := range batch {
			var ok bool
			if now, ok = s.scoreItem(ss, it, loadMode, now); !ok {
				panicked = true
			}
		}
		if panicked {
			sh.panics.Add(1)
			ss.panics.Inc()
			if sh.breaker.failure() {
				sh.down.Store(true)
				ss.down.Inc()
			}
		} else {
			sh.breaker.success()
			sh.down.Store(false)
		}
	}
}

// shardScorer is one shard scorer's private state: the RawScorer memoized
// per model generation, so a hot-reload rebuilds packed state once per
// shard rather than once per sample, and every telemetry handle a verdict
// touches, resolved once when the scorer starts, so a verdict does no
// registry lookup and renders no label string. The stream's flagged
// counter lives on its worker and the SLO burn gauges on the tracker, both
// resolved once as well.
type shardScorer struct {
	sh     *shard
	mdl    *Models
	scorer *perspectron.RawScorer

	latency                            *telemetry.Histogram
	stageQueue, stageBatch, stageScore *telemetry.Histogram
	stageLog                           *telemetry.Histogram
	verdicts, modeChanges              [numServeModes]*telemetry.Counter
	errors, slow, panics, down         *telemetry.Counter
}

// numServeModes counts the ladder rungs, classifier through threshold.
const numServeModes = int(perspectron.ModeThreshold) + 1

func newShardScorer(sh *shard) *shardScorer {
	reg := telemetry.Get()
	ss := &shardScorer{
		sh:         sh,
		latency:    reg.Histogram("perspectron_serve_verdict_latency_seconds", latencyBounds),
		stageQueue: reg.Histogram(stageQueue, telemetry.LatencyBuckets),
		stageBatch: reg.Histogram(stageBatch, telemetry.LatencyBuckets),
		stageScore: reg.Histogram(stageScore, telemetry.LatencyBuckets),
		stageLog:   reg.Histogram(stageLog, telemetry.LatencyBuckets),
		errors:     reg.Counter(telemetry.Name("perspectron_serve_verdicts_total", "mode", "error")),
		slow:       reg.Counter("perspectron_serve_slow_verdicts_total"),
		panics:     reg.Counter(telemetry.Name("perspectron_serve_scorer_panics_total", "shard", strconv.Itoa(sh.id))),
		down:       reg.Counter(telemetry.Name("perspectron_serve_shard_down_total", "shard", strconv.Itoa(sh.id))),
	}
	for m := range ss.verdicts {
		mode := perspectron.ServeMode(m).String()
		ss.verdicts[m] = reg.Counter(telemetry.Name("perspectron_serve_verdicts_total", "mode", mode))
		ss.modeChanges[m] = reg.Counter(telemetry.Name("perspectron_serve_mode_changes_total", "mode", mode))
	}
	return ss
}

// scorerFor returns the RawScorer for mdl, rebuilding it when the model
// generation changed.
func (ss *shardScorer) scorerFor(mdl *Models) (*perspectron.RawScorer, error) {
	if ss.scorer != nil && ss.mdl == mdl {
		return ss.scorer, nil
	}
	scorer, err := perspectron.NewRawScorer(mdl.Det, mdl.Cls)
	if err != nil {
		return nil, err
	}
	ss.mdl, ss.scorer = mdl, scorer
	return scorer, nil
}

// scoreItem scores one sample end to end and logs its verdict. start is
// the instant the item's scoring turn began: the batch's dequeue stamp for
// the first item, the previous verdict's end stamp after that. It returns
// its own end stamp, so one clock read closes a verdict and opens the next
// one's turn, and it reports false when scoring panicked; the item is
// still logged (mode "error") so the verdict accounting stays exact.
//
// Every verdict carries its forensics: the record holds its trace ID and
// the queue/batch/score stage breakdown, the four
// perspectron_serve_stage_seconds histograms are fed, the latency folds
// into the SLO burn, and a verdict past slowSample emits an exemplar event
// into the telemetry trace stream. Flagged samples (and every
// AttrBenignEvery-th benign one) get their fired slots and top-k weight×bit
// contributions stamped and are pushed into the flight recorder.
// BenchmarkServeForensicsOverhead prices this against bare scoring.
func (s *Supervisor) scoreItem(ss *shardScorer, it *ingestItem, loadMode perspectron.ServeMode, start time.Time) (end time.Time, ok bool) {
	mdl := s.models.Load() // pinned: the verdict is attributed to this version
	detVer, _ := mdl.Versions()
	rec := VerdictRecord{
		Worker:  it.w.name,
		Episode: it.episode,
		Sample:  it.sample.Sample,
		Version: detVer,
		Shard:   ss.sh.id,
	}
	mode, ok := s.scoreSafe(ss, mdl, it, loadMode, &rec)
	scored := monoNow(start)
	queueWait := it.dequeuedAt.Sub(it.enqueuedAt)
	batchWait := start.Sub(it.dequeuedAt)
	scoreDur := scored.Sub(start)
	total := scored.Sub(it.enqueuedAt)
	rec.Trace = it.trace()
	rec.QueueMs = float64(queueWait) / float64(time.Millisecond)
	rec.BatchMs = float64(batchWait) / float64(time.Millisecond)
	rec.ScoreMs = float64(scoreDur) / float64(time.Millisecond)
	rec.LatencyMs = float64(total) / float64(time.Millisecond)
	s.log.record(rec)
	s.observe(rec)
	if rec.Attr != nil {
		s.flight.Push(rec)
	}
	s.slo.observe(total, false)
	ss.sh.scored.Add(1)
	ss.latency.Observe(total.Seconds())
	if ok {
		ss.verdicts[mode].Inc()
	} else {
		ss.errors.Inc()
	}
	end = monoNow(scored)
	logDur := end.Sub(scored)
	ss.stageQueue.Observe(queueWait.Seconds())
	ss.stageBatch.Observe(batchWait.Seconds())
	ss.stageScore.Observe(scoreDur.Seconds())
	ss.stageLog.Observe(logDur.Seconds())
	if total >= slowSample {
		ss.slow.Inc()
		if reg := telemetry.Get(); reg.HasEventSink() {
			reg.Event("serve.slow_verdict", map[string]any{
				"trace":    rec.Trace,
				"shard":    ss.sh.id,
				"mode":     rec.Mode,
				"total_ms": rec.LatencyMs,
				"queue_ms": rec.QueueMs,
				"batch_ms": rec.BatchMs,
				"score_ms": rec.ScoreMs,
				"log_ms":   float64(logDur) / float64(time.Millisecond),
			})
		}
	}
	return end, ok
}

// monoNow returns the current instant as t advanced by the monotonic time
// elapsed since it: one monotonic clock read, where time.Now also reads the
// wall clock. The stage split only ever subtracts instants, so the wall
// part needs no fresh read.
func monoNow(t time.Time) time.Time { return t.Add(time.Since(t)) }

// scoreSafe runs scoreSample and turns a panic in it (scoring bug, chaos
// injection) into an error verdict: rec gets mode "error" and the message,
// the worker's last error is set, and ok is false.
func (s *Supervisor) scoreSafe(ss *shardScorer, mdl *Models, it *ingestItem, loadMode perspectron.ServeMode, rec *VerdictRecord) (mode perspectron.ServeMode, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			ok = false
			msg := fmt.Sprintf("scorer panic: %v", r)
			it.w.lastErr.Store(&msg)
			rec.Mode = "error"
			rec.Error = msg
		}
	}()
	return s.scoreSample(ss, mdl, it, loadMode, rec), true
}

// scoreSample fills rec's verdict: packed detector margin, coverage into
// the worker's ladder, effective mode = the worse of the coverage rung and
// the shard's load rung, classifier naming only on the top rung, and the
// attribution when the verdict is selected for one. It returns the mode.
func (s *Supervisor) scoreSample(ss *shardScorer, mdl *Models, it *ingestItem, loadMode perspectron.ServeMode, rec *VerdictRecord) perspectron.ServeMode {
	if hook := s.scoreHook; hook != nil {
		hook(it)
	}
	scorer, err := ss.scorerFor(mdl)
	if err != nil {
		panic(err) // surfaces as an error verdict + breaker pressure
	}
	score, flagged, coverage := scorer.Detect(it.sample)
	covMode, changed := it.w.ladder.observe(coverage)
	if changed {
		ss.modeChanges[covMode].Inc()
	}
	mode := maxMode(covMode, loadMode)
	class := ""
	switch mode {
	case perspectron.ModeClassifier:
		cl, _, _ := scorer.Classify(it.sample)
		if cl != "" {
			class, flagged = cl, cl != "benign"
		}
	case perspectron.ModeThreshold:
		flagged = score > 0
	}
	if flagged {
		it.w.flagged.Inc()
	}
	// Attribute flagged verdicts always, benign ones on the shard's
	// round-robin tick. Classify scratches a separate bit vector, so the
	// detector's fired set is still intact here.
	attributed := flagged
	if !attributed && s.cfg.AttrBenignEvery > 0 &&
		ss.sh.attrTick.Add(1)%uint64(s.cfg.AttrBenignEvery) == 0 {
		attributed = true
	}
	if attributed {
		if fired, attr, aerr := scorer.Attribution(attributionK); aerr == nil {
			rec.Fired, rec.Attr = fired, attr
		}
	}
	rec.Mode = mode.String()
	rec.Score = score
	rec.Class = class
	rec.Flagged = flagged
	rec.Coverage = coverage
	return mode
}

// Stage-latency series names, pre-rendered once.
var (
	stageQueue = telemetry.Name("perspectron_serve_stage_seconds", "stage", "queue")
	stageBatch = telemetry.Name("perspectron_serve_stage_seconds", "stage", "batch")
	stageScore = telemetry.Name("perspectron_serve_stage_seconds", "stage", "score")
	stageLog   = telemetry.Name("perspectron_serve_stage_seconds", "stage", "log")
)

// observe feeds the optional per-verdict test observer.
func (s *Supervisor) observe(rec VerdictRecord) {
	if s.onVerdict != nil {
		s.onVerdict(rec)
	}
}

// latencyBounds buckets verdict latency from 100µs to ~10s.
var latencyBounds = []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
