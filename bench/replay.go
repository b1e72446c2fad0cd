package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"perspectron"
)

// batchCalls is how many calls one timed batch holds: a single call is too
// short for the clock, so scoring costs are timed per thousand.
const batchCalls = 1000

// attrK is serve's default attribution depth (Config.AttributionK).
const attrK = 5

// replayModels loads the setup's detector, classifier and raw samples.
func replayModels(art string) (*perspectron.Detector, *perspectron.Classifier, []replaySample, error) {
	det, err := perspectron.LoadFile(filepath.Join(art, detectorFile))
	if err != nil {
		return nil, nil, nil, err
	}
	cls, err := perspectron.LoadClassifierFile(filepath.Join(art, classifierFile))
	if err != nil {
		return nil, nil, nil, err
	}
	samples, err := loadReplay(filepath.Join(art, replayFile))
	if err != nil {
		return nil, nil, nil, err
	}
	return det, cls, samples, nil
}

// runReplayRep scores the harvested samples on one goroutine for the rep's
// budget, cycling over them: Detect and Classify on every sample,
// Attribution on flagged ones — the serving scorer's work with the
// simulator bypassed. An operation is a verdict; it fails if Attribution
// returns an error.
func runReplayRep(a childArgs, tr *tracer, res *childResult) error {
	det, cls, samples, err := replayModels(a.art)
	if err != nil {
		return err
	}
	rs, err := perspectron.NewRawScorer(det, cls)
	if err != nil {
		return err
	}
	raw := make([]perspectron.RawSample, len(samples))
	for i, s := range samples {
		raw[i] = perspectron.RawSample{Sample: s.Sample, Raw: s.Raw}
	}

	// One untimed pass checks every flagged verdict against the detector's
	// own re-derivation and fingerprints the scores for cross-rep checks.
	digest, err := checkReplay(det, rs, raw)
	if err != nil {
		return err
	}
	res.Digest = map[string]string{"scores": digest}

	root := tr.begin("score-replay", 0)
	cpu0 := cpuSeconds()
	start := time.Now()
	deadline := start.Add(a.budget)
	next := 0
	for time.Now().Before(deadline) {
		id := tr.begin("replay.batch", root)
		t := time.Now()
		for i := 0; i < batchCalls; i++ {
			s := raw[next]
			if next++; next == len(raw) {
				next = 0
			}
			_, flagged, _ := rs.Detect(s)
			rs.Classify(s)
			res.Attempted++
			if flagged {
				if _, _, err := rs.Attribution(attrK); err != nil {
					res.Failed++
				}
			}
		}
		el := time.Since(t)
		res.LatencyMs = append(res.LatencyMs, float64(el)/float64(time.Millisecond)/batchCalls)
		res.Rates = append(res.Rates, batchCalls/el.Seconds())
		tr.end(id)
	}
	res.Seconds = time.Since(start).Seconds()
	res.CPUSeconds = cpuSeconds() - cpu0
	tr.end(root)
	return nil
}

// checkReplay scores every sample once and, for each flagged one, requires
// the Detect score to equal the score Detector.AttributeFired re-derives
// from the fired set. It returns a fingerprint of all scores.
func checkReplay(det *perspectron.Detector, rs *perspectron.RawScorer, raw []perspectron.RawSample) (string, error) {
	fp := newFingerprint()
	flaggedN := 0
	for i, s := range raw {
		score, flagged, _ := rs.Detect(s)
		class, cscore, _ := rs.Classify(s)
		fp.add(fmt.Sprintf("%d %x %t %s %x", i, math.Float64bits(score), flagged, class, math.Float64bits(cscore)))
		if !flagged {
			continue
		}
		flaggedN++
		fired, _, err := rs.Attribution(attrK)
		if err != nil {
			return "", err
		}
		again, _, err := det.AttributeFired(fired, attrK)
		if err != nil {
			return "", err
		}
		if again != score {
			return "", fmt.Errorf("sample %d: Detect scored %v, AttributeFired re-derives %v", i, score, again)
		}
	}
	if flaggedN == 0 {
		return "", fmt.Errorf("no replay sample was flagged; the attribution check covered nothing")
	}
	return fp.sum(), nil
}

// scoreProbe times the scoring layer alone on the harvested samples:
// Detect, Classify and Attribution each in batches of batchCalls calls
// (median per call), then the allocation cost of one replay verdict.
func scoreProbe(art string, layer map[string]float64) error {
	det, cls, samples, err := replayModels(art)
	if err != nil {
		return err
	}
	rs, err := perspectron.NewRawScorer(det, cls)
	if err != nil {
		return err
	}
	raw := make([]perspectron.RawSample, len(samples))
	var flagged []perspectron.RawSample
	for i, s := range samples {
		raw[i] = perspectron.RawSample{Sample: s.Sample, Raw: s.Raw}
		if _, f, _ := rs.Detect(raw[i]); f {
			flagged = append(flagged, raw[i])
		}
	}
	if len(flagged) == 0 {
		return fmt.Errorf("no replay sample was flagged; attribution cannot be timed")
	}
	const batches = 60
	perCall := func(fn func(i int)) float64 {
		var ns []float64
		for b := 0; b < batches; b++ {
			t := time.Now()
			for i := 0; i < batchCalls; i++ {
				fn(b*batchCalls + i)
			}
			ns = append(ns, float64(time.Since(t).Nanoseconds())/batchCalls)
		}
		return median(ns)
	}
	layer["score.detect_ns"] = perCall(func(i int) { rs.Detect(raw[i%len(raw)]) })
	layer["score.classify_ns"] = perCall(func(i int) { rs.Classify(raw[i%len(raw)]) })
	var ns []float64
	for b := 0; b < batches; b++ {
		rs.Detect(flagged[b%len(flagged)])
		t := time.Now()
		for i := 0; i < batchCalls; i++ {
			rs.Attribution(attrK)
		}
		ns = append(ns, float64(time.Since(t).Nanoseconds())/batchCalls)
	}
	layer["score.attribution_ns"] = median(ns)

	const verdicts = 20 * batchCalls
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < verdicts; i++ {
		s := raw[i%len(raw)]
		if _, f, _ := rs.Detect(s); f {
			rs.Attribution(attrK)
		}
		rs.Classify(s)
	}
	runtime.ReadMemStats(&m1)
	layer["score.allocs_per_verdict"] = float64(m1.Mallocs-m0.Mallocs) / verdicts
	layer["score.bytes_per_verdict"] = float64(m1.TotalAlloc-m0.TotalAlloc) / verdicts
	return nil
}
