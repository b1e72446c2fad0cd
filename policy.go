package perspectron

import (
	"fmt"
	"math/rand"

	"perspectron/internal/isa"
	"perspectron/internal/sim"
	"perspectron/internal/trace"
	"perspectron/internal/workload"
)

// Mitigation identifies one of the §IV-G1 hardware countermeasures wired
// into the simulated machine.
type Mitigation int

const (
	// MitigateNone takes no action.
	MitigateNone Mitigation = iota
	// MitigateFence enables context-sensitive fencing: injected fences
	// block speculative loads (Spectre-class channels) at a per-branch
	// serialization cost.
	MitigateFence
	// MitigateRekey rotates the CEASER-style cache-index key, destroying
	// eviction sets (Prime+Probe-class channels).
	MitigateRekey
	// MitigateBPNoise randomizes branch predictions, making predictor
	// mistraining unreliable.
	MitigateBPNoise
)

// String names the mitigation.
func (m Mitigation) String() string {
	switch m {
	case MitigateFence:
		return "fence"
	case MitigateRekey:
		return "rekey"
	case MitigateBPNoise:
		return "bp-noise"
	}
	return "none"
}

// ServeMode identifies which scoring model a serving worker is using — the
// rungs of the graceful-degradation ladder the long-running service
// (internal/serve) walks as counter coverage drops. The ladder goes
// classifier → detector → threshold: the multi-way classifier needs the
// widest counter space, the binary detector only its 106 selected features,
// and the threshold policy just a sign on whatever margin survives.
type ServeMode int

const (
	// ModeClassifier scores with the multi-way classifier: full counter
	// space, names the attack category for targeted mitigation.
	ModeClassifier ServeMode = iota
	// ModeDetector scores with the binary detector on the selected
	// features — the first degradation rung when classifier coverage
	// drops below its floor.
	ModeDetector
	// ModeThreshold is the last resort: a bare sign test on the
	// renormalized detector margin, usable at any nonzero coverage.
	ModeThreshold
)

// String names the serve mode as it appears in telemetry series and
// /healthz.
func (m ServeMode) String() string {
	switch m {
	case ModeClassifier:
		return "classifier"
	case ModeDetector:
		return "detector"
	case ModeThreshold:
		return "threshold"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Policy decides, per sampling interval, which mitigations to run given the
// detector's confidence score. It is the paper's deployment model: the
// low-level detector raises information; the policy escalates gradually
// rather than killing processes.
type Policy func(score float64, active []Mitigation) []Mitigation

// EscalationPolicy is the default §IV-G policy: below watch, no action;
// between watch and act, keep current mitigations (hysteresis); at or above
// act, enable the given mitigations.
func EscalationPolicy(watch, act float64, response ...Mitigation) Policy {
	return func(score float64, active []Mitigation) []Mitigation {
		switch {
		case score >= act:
			return response
		case score >= watch:
			return active // hold current state
		default:
			return nil
		}
	}
}

// MitigatedReport extends Report with the mitigation timeline.
type MitigatedReport struct {
	Report
	// ActiveAt[i] lists the mitigations enabled after sample i fired.
	ActiveAt [][]Mitigation
	// SpecLoadsBlocked counts speculative loads suppressed by fencing.
	SpecLoadsBlocked float64
	// Rekeys counts cache-index re-randomizations performed.
	Rekeys float64
	// MitigatedIntervals counts intervals with at least one mitigation on.
	MitigatedIntervals int
}

// MonitorWithPolicy runs the workload while the detector scores every
// sampling interval ONLINE and the policy drives the machine's hardware
// mitigations between intervals. This is the end-to-end deployment loop of
// §IV-G: detect with confidence, mitigate proportionally, stand down when
// the signal clears. Scoring goes through the same RawScorer as Replay; the
// policy runs synchronously in the machine's OnSample hook, because a
// mitigation must be in place before the next interval executes (so this
// cannot be a recorded run). OnSample skips the trailing partial interval,
// which has no later interval to act on. A panicking workload ends the run
// with an error, as in Monitor.
func (d *Detector) MonitorWithPolicy(w Workload, maxInsts uint64, seed int64, policy Policy) (*MitigatedReport, error) {
	if policy == nil {
		return nil, fmt.Errorf("perspectron: nil policy")
	}
	m := sim.NewMachine()
	detIdx, _, err := resolveModels(m.Reg, d, nil)
	if err != nil {
		return nil, err
	}
	scorer := newRawScorer(d, detIdx, nil, nil)
	info := w.Info()
	fold := newReportFold(info.Name, info.Label == workload.Malicious, d.Interval)
	rep := &MitigatedReport{}

	var active []Mitigation
	apply := func(ms []Mitigation) {
		fence, noise := false, 0
		for _, mit := range ms {
			switch mit {
			case MitigateFence:
				fence = true
			case MitigateBPNoise:
				noise = 300
			}
		}
		m.EnableFencing(fence)
		m.InjectBPNoise(noise)
	}

	m.OnSample = func(idx int, delta []float64) {
		score, flagged, coverage := scorer.Detect(RawSample{Sample: idx, Raw: delta})
		fold.add(idx, score, flagged, coverage)
		next := policy(score, active)
		for _, mit := range next {
			if mit == MitigateRekey {
				m.RekeyCaches(uint64(idx)*0x9e3779b97f4a7c15 + 0xb5)
			}
		}
		active = next
		apply(active)
		rep.ActiveAt = append(rep.ActiveAt, append([]Mitigation(nil), active...))
		if len(active) > 0 {
			rep.MitigatedIntervals++
		}
	}

	var stream isa.Stream
	if err := runGuarded(func() {
		stream = w.Stream(rand.New(rand.NewSource(seed)))
		m.RunStream(stream, maxInsts, d.Interval, func(int, []float64) bool { return true })
	}); err != nil {
		return nil, fmt.Errorf("perspectron: monitoring %s: %w", info.Name, err)
	}

	if c, ok := m.Reg.Lookup("iew.blockedSpecLoads"); ok {
		rep.SpecLoadsBlocked = c.Value()
	}
	if c, ok := m.Reg.Lookup("dcache.rekeys"); ok {
		rep.Rekeys = c.Value()
	}
	leaks := trace.LeakSamples(stream, d.Interval, len(fold.rep.Samples))
	rep.Report = *fold.finish(leaks, detIdx)
	return rep, nil
}

// runGuarded runs f, converting a panic into the "run panicked" error a
// trace.Source reports for the same failure.
func runGuarded(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("run panicked: %v", r)
		}
	}()
	f()
	return nil
}
