package serve

import (
	"sync"

	"perspectron"
)

// ladder is one worker's graceful-degradation state machine. Coverage — the
// fraction of model features observable per sample — is smoothed with an
// EWMA, and the serving mode walks down the ladder (classifier → detector →
// threshold) as the smoothed coverage crosses configurable floors, with
// hysteresis on the way back up so a worker flapping around a floor does
// not oscillate between models every sample.
type ladder struct {
	classifierFloor float64 // below: classifier rung unusable
	detectorFloor   float64 // below: detector rung unusable
	hysteresis      float64 // extra margin required to climb back up
	alpha           float64 // EWMA smoothing weight for new samples
	hasClassifier   bool

	mu   sync.Mutex
	ewma float64
	mode perspectron.ServeMode
	seen bool
}

func newLadder(classifierFloor, detectorFloor, hysteresis float64, hasClassifier bool) *ladder {
	l := &ladder{
		classifierFloor: classifierFloor,
		detectorFloor:   detectorFloor,
		hysteresis:      hysteresis,
		alpha:           0.3,
		hasClassifier:   hasClassifier,
		mode:            perspectron.ModeDetector,
	}
	if hasClassifier {
		l.mode = perspectron.ModeClassifier
	}
	return l
}

// observe folds one sample's coverage into the EWMA and returns the serving
// mode for this sample plus whether the mode just changed.
func (l *ladder) observe(coverage float64) (mode perspectron.ServeMode, changed bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.seen {
		l.ewma = coverage
		l.seen = true
	} else {
		l.ewma = l.alpha*coverage + (1-l.alpha)*l.ewma
	}
	prev := l.mode
	// Walk down as far as the smoothed coverage requires...
	if l.mode == perspectron.ModeClassifier && l.ewma < l.classifierFloor {
		l.mode = perspectron.ModeDetector
	}
	if l.mode == perspectron.ModeDetector && l.ewma < l.detectorFloor {
		l.mode = perspectron.ModeThreshold
	}
	// ...and climb back one rung at a time, only past floor+hysteresis.
	if l.mode == perspectron.ModeThreshold && l.ewma >= l.detectorFloor+l.hysteresis {
		l.mode = perspectron.ModeDetector
	}
	if l.mode == perspectron.ModeDetector && l.hasClassifier &&
		l.ewma >= l.classifierFloor+l.hysteresis && prev != perspectron.ModeThreshold {
		l.mode = perspectron.ModeClassifier
	}
	return l.mode, l.mode != prev
}

// snapshot returns the current mode and smoothed coverage for health
// reporting.
func (l *ladder) snapshot() (mode perspectron.ServeMode, coverage float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.mode, l.ewma
}
