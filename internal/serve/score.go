package serve

// The verdict path: each worker scores its own samples, on its own
// goroutine, in the NextRaw call that completed them — the paper's
// detector reads the counters when the interval closes, with no queue in
// between. A verdict runs the coverage ladder, the worker's RawScorer,
// forensics (trace ID, stage timings, attribution, flight recorder, SLO
// burn) and the verdict-log append.

import (
	"fmt"
	"strconv"
	"time"

	"perspectron"
	"perspectron/internal/telemetry"
)

// traceID renders a sample's stream-scoped trace ID: worker/episode/sample,
// unique per admitted sample and stable across the verdict log, the
// slow-verdict exemplars and /debug/verdicts. The appends run into a stack
// buffer, so the returned string is the only allocation.
func traceID(worker string, episode, sample int) string {
	var buf [64]byte
	b := append(buf[:0], worker...)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(episode), 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(sample), 10)
	return string(b)
}

// verdictScorer is one worker's private scoring state: the RawScorer
// memoized per model generation, so a hot-reload rebuilds packed state once
// per worker and applies from the next sample, and every telemetry handle a
// verdict touches, resolved once when the worker is built, so a verdict
// does no registry lookup and renders no label string. The stream's
// flagged counter lives on its worker and the SLO burn gauges on the
// tracker, both resolved once as well.
type verdictScorer struct {
	mdl    *Models
	scorer *perspectron.RawScorer
	// attrTick is the benign-sample attribution round-robin counter.
	attrTick uint64

	latency, stageScore, stageLog *telemetry.Histogram
	verdicts, modeChanges         [numServeModes]*telemetry.Counter
	errors, slow                  *telemetry.Counter
}

// numServeModes counts the ladder rungs, classifier through threshold.
const numServeModes = int(perspectron.ModeThreshold) + 1

func newVerdictScorer(reg *telemetry.Registry) verdictScorer {
	vs := verdictScorer{
		latency:    reg.Histogram("perspectron_serve_verdict_latency_seconds", latencyBounds),
		stageScore: reg.Histogram(stageScore, telemetry.LatencyBuckets),
		stageLog:   reg.Histogram(stageLog, telemetry.LatencyBuckets),
		errors:     reg.Counter(telemetry.Name("perspectron_serve_verdicts_total", "mode", "error")),
		slow:       reg.Counter("perspectron_serve_slow_verdicts_total"),
	}
	for m := range vs.verdicts {
		mode := perspectron.ServeMode(m).String()
		vs.verdicts[m] = reg.Counter(telemetry.Name("perspectron_serve_verdicts_total", "mode", mode))
		vs.modeChanges[m] = reg.Counter(telemetry.Name("perspectron_serve_mode_changes_total", "mode", mode))
	}
	return vs
}

// scorerFor returns the RawScorer for mdl, rebuilding it when the model
// generation changed. An episode builds it before its first sample; a
// verdict rebuilds it only after a reload.
func (vs *verdictScorer) scorerFor(mdl *Models) (*perspectron.RawScorer, error) {
	if vs.scorer != nil && vs.mdl == mdl {
		return vs.scorer, nil
	}
	scorer, err := perspectron.NewRawScorer(mdl.Det, mdl.Cls)
	if err != nil {
		return nil, err
	}
	vs.mdl, vs.scorer = mdl, scorer
	return scorer, nil
}

// scoreItem scores one sample of w's stream end to end and logs its
// verdict. admitted is the instant the sample was admitted, the clock read
// that closed its NextRaw call. It returns its own end stamp, which opens
// the stream's next sample interval, and reports false when scoring
// panicked; the sample is still logged (mode "error") so the verdict
// accounting stays exact.
//
// Every verdict carries its forensics: the record holds its trace ID and
// score time, the score and log perspectron_serve_stage_seconds histograms
// are fed, the latency folds into the SLO burn, and a verdict past
// slowSample emits an exemplar event into the telemetry trace stream.
// Flagged samples (and every AttrBenignEvery-th benign one) get their fired
// slots and top-k weight×bit contributions stamped and are pushed into the
// flight recorder. BenchmarkServeForensicsOverhead prices this against bare
// scoring.
func (s *Supervisor) scoreItem(w *worker, episode int, rs perspectron.RawSample, admitted time.Time) (end time.Time, ok bool) {
	w.enqueued.Add(1)
	mdl := s.models.Load() // pinned: the verdict is attributed to this version
	detVer, _ := mdl.Versions()
	rec := VerdictRecord{
		Worker:  w.name,
		Episode: episode,
		Sample:  rs.Sample,
		Version: detVer,
	}
	mode, ok := s.scoreSafe(w, mdl, rs, &rec)
	scored := monoNow(admitted)
	total := scored.Sub(admitted)
	rec.Trace = traceID(w.name, episode, rs.Sample)
	rec.ScoreMs = float64(total) / float64(time.Millisecond)
	rec.LatencyMs = rec.ScoreMs
	s.log.record(rec)
	s.observe(rec)
	if rec.Attr != nil {
		s.flight.Push(rec)
	}
	s.slo.observe(total)
	vs := &w.sc
	vs.latency.Observe(total.Seconds())
	if ok {
		vs.verdicts[mode].Inc()
	} else {
		vs.errors.Inc()
	}
	end = monoNow(scored)
	logDur := end.Sub(scored)
	vs.stageScore.Observe(total.Seconds())
	vs.stageLog.Observe(logDur.Seconds())
	if total >= slowSample {
		vs.slow.Inc()
		if reg := telemetry.Get(); reg.HasEventSink() {
			reg.Event("serve.slow_verdict", map[string]any{
				"trace":    rec.Trace,
				"mode":     rec.Mode,
				"total_ms": rec.LatencyMs,
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
func (s *Supervisor) scoreSafe(w *worker, mdl *Models, rs perspectron.RawSample, rec *VerdictRecord) (mode perspectron.ServeMode, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			ok = false
			msg := fmt.Sprintf("scorer panic: %v", r)
			w.lastErr.Store(&msg)
			rec.Mode = "error"
			rec.Error = msg
		}
	}()
	return s.scoreSample(w, mdl, rs, rec), true
}

// scoreSample fills rec's verdict: packed detector margin, coverage into
// the worker's ladder, classifier naming only on the top rung, and the
// attribution when the verdict is selected for one. It returns the mode.
func (s *Supervisor) scoreSample(w *worker, mdl *Models, rs perspectron.RawSample, rec *VerdictRecord) perspectron.ServeMode {
	if hook := s.scoreHook; hook != nil {
		hook()
	}
	vs := &w.sc
	scorer, err := vs.scorerFor(mdl)
	if err != nil {
		panic(err) // surfaces as an error verdict + breaker pressure
	}
	score, flagged, coverage := scorer.Detect(rs)
	mode, changed := w.ladder.observe(coverage)
	if changed {
		vs.modeChanges[mode].Inc()
	}
	class := ""
	switch mode {
	case perspectron.ModeClassifier:
		cl, _, _ := scorer.Classify(rs)
		if cl != "" {
			class, flagged = cl, cl != "benign"
		}
	case perspectron.ModeThreshold:
		flagged = score > 0
	}
	if flagged {
		w.flagged.Inc()
	}
	// Attribute flagged verdicts always, benign ones on the worker's
	// round-robin tick. Classify scratches a separate bit vector, so the
	// detector's fired set is still intact here.
	attributed := flagged
	if !attributed && s.cfg.AttrBenignEvery > 0 {
		vs.attrTick++
		attributed = vs.attrTick%uint64(s.cfg.AttrBenignEvery) == 0
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
