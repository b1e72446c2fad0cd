package perspectron

import (
	"math/rand"
	"testing"

	"perspectron/internal/isa"
	"perspectron/internal/workload"
)

func TestEscalationPolicyBands(t *testing.T) {
	p := EscalationPolicy(0.25, 0.6, MitigateFence)
	if got := p(0.1, nil); len(got) != 0 {
		t.Fatalf("low score mitigated: %v", got)
	}
	if got := p(0.9, nil); len(got) != 1 || got[0] != MitigateFence {
		t.Fatalf("high score response = %v", got)
	}
	// Hysteresis: in the watch band, current state persists.
	cur := []Mitigation{MitigateFence}
	if got := p(0.4, cur); len(got) != 1 {
		t.Fatalf("watch band dropped active mitigation: %v", got)
	}
	if got := p(0.4, nil); len(got) != 0 {
		t.Fatalf("watch band invented a mitigation: %v", got)
	}
	if got := p(0.1, cur); len(got) != 0 {
		t.Fatalf("clear signal did not stand down: %v", got)
	}
}

func TestMitigationNames(t *testing.T) {
	for _, m := range []Mitigation{MitigateNone, MitigateFence, MitigateRekey, MitigateBPNoise} {
		if m.String() == "" {
			t.Fatalf("unnamed mitigation %d", m)
		}
	}
}

func TestMonitorWithPolicyFencesAttack(t *testing.T) {
	det := sharedDetector(t)
	policy := EscalationPolicy(0.25, 0.5, MitigateFence)
	rep, err := det.MonitorWithPolicy(AttackByName("spectreV1", "fr"), 100_000, 9, policy)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Detected {
		t.Fatalf("attack not detected")
	}
	if rep.MitigatedIntervals == 0 {
		t.Fatalf("policy never mitigated a detected attack")
	}
	// Once fencing engages, speculative loads get blocked — the channel is
	// actually closed, not just flagged.
	if rep.SpecLoadsBlocked == 0 {
		t.Fatalf("fencing engaged but blocked no speculative loads")
	}
}

func TestMonitorWithPolicyLeavesBenignAlone(t *testing.T) {
	det := sharedDetector(t)
	policy := EscalationPolicy(0.25, 0.5, MitigateFence, MitigateRekey)
	var benign Workload
	for _, w := range BenignWorkloads() {
		if w.Info().Name == "bzip2" {
			benign = w
		}
	}
	rep, err := det.MonitorWithPolicy(benign, 80_000, 9, policy)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MitigatedIntervals > len(rep.Samples)/4 {
		t.Fatalf("benign program mitigated in %d/%d intervals",
			rep.MitigatedIntervals, len(rep.Samples))
	}
}

func TestMonitorWithPolicyRekeys(t *testing.T) {
	det := sharedDetector(t)
	policy := EscalationPolicy(0.2, 0.4, MitigateRekey)
	rep, err := det.MonitorWithPolicy(AttackByName("prime+probe", ""), 80_000, 9, policy)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Detected && rep.Rekeys == 0 {
		t.Fatalf("detected prime+probe but never rekeyed")
	}
}

func TestMonitorWithPolicyNilPolicy(t *testing.T) {
	det := sharedDetector(t)
	if _, err := det.MonitorWithPolicy(AttackByName("meltdown", "fr"), 10_000, 1, nil); err == nil {
		t.Fatalf("nil policy accepted")
	}
}

// panicWorkload's stream panics partway through the run.
type panicWorkload struct{}

func (panicWorkload) Info() workload.Info {
	return workload.Info{Name: "panicker", Label: workload.Benign, Category: "test"}
}

func (panicWorkload) Stream(*rand.Rand) isa.Stream { return &panicStream{} }

type panicStream struct {
	n  uint64
	op isa.Op
}

func (s *panicStream) Next() (*isa.Op, bool) {
	s.n++
	if s.n > 5_000 {
		panic("workload bug")
	}
	s.op = isa.Op{Kind: isa.KindPlain, Class: isa.IntAlu, PC: 0x4000 + 4*s.n}
	return &s.op, true
}

// TestMonitorWithPolicyWorkloadPanic: a panicking workload must surface as
// the same error Monitor reports, not panic the caller.
func TestMonitorWithPolicyWorkloadPanic(t *testing.T) {
	det := sharedDetector(t)
	const want = "perspectron: monitoring panicker: run panicked: workload bug"
	_, err := det.MonitorWithPolicy(panicWorkload{}, 40_000, 1, EscalationPolicy(0.25, 0.5, MitigateFence))
	if err == nil || err.Error() != want {
		t.Fatalf("MonitorWithPolicy error = %v, want %q", err, want)
	}
	if _, err := det.Monitor(panicWorkload{}, 40_000, 1); err == nil || err.Error() != want {
		t.Fatalf("Monitor error = %v, want %q", err, want)
	}
}

func TestMonitorWithPolicyStandsDown(t *testing.T) {
	// A bandwidth-reduced attack alternates bursts and quiet filler: the
	// policy must engage during bursts and stand down during quiet phases.
	det := sharedDetector(t)
	// Watch band above the idle-interval score (~0.27) so quiet filler
	// phases genuinely stand the mitigation down.
	policy := EscalationPolicy(0.35, 0.5, MitigateFence)
	w := ReduceBandwidth(AttackByName("spectreV1", "fr"), 0.25)
	rep, err := det.MonitorWithPolicy(w, 300_000, 9, policy)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MitigatedIntervals == 0 {
		t.Fatalf("never mitigated")
	}
	if rep.MitigatedIntervals == len(rep.Samples) {
		t.Fatalf("never stood down during quiet phases (%d/%d)",
			rep.MitigatedIntervals, len(rep.Samples))
	}
}
