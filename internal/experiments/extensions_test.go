package experiments

import (
	"strings"
	"testing"
)

func TestMultiwayNearPerfectTrainingF1(t *testing.T) {
	r := quick("multiway", Multiway)
	if r.MacroF1 < 0.9 {
		t.Fatalf("macro F1 %.3f (paper: near-perfect on the training set)\n%s",
			r.MacroF1, r.Render())
	}
	if r.Accuracy < 0.9 {
		t.Fatalf("multiway accuracy %.3f", r.Accuracy)
	}
	// Benign and the stealthiest attack class must individually classify
	// well.
	if r.PerClass["benign"] < 0.9 {
		t.Fatalf("benign F1 %.3f", r.PerClass["benign"])
	}
	if r.PerClass["flush_flush"] < 0.8 {
		t.Fatalf("flush_flush F1 %.3f", r.PerClass["flush_flush"])
	}
	if len(r.Classes) < 10 {
		t.Fatalf("classes = %d", len(r.Classes))
	}
}

func TestMitigateTradeoffs(t *testing.T) {
	r := quick("mitigate", Mitigate)
	// Fencing closes the speculative channel completely...
	if r.FenceSpecLoadsBlocked < 0.999 {
		t.Fatalf("fencing blocked only %.1f%% of speculative loads",
			r.FenceSpecLoadsBlocked*100)
	}
	// ...at a real but bounded benign cost.
	if r.FenceBenignOverhead <= 0 {
		t.Fatalf("fencing is free (%.3f): the trade-off disappeared", r.FenceBenignOverhead)
	}
	if r.FenceBenignOverhead > 1.0 {
		t.Fatalf("fencing overhead %.1f%% implausibly high", r.FenceBenignOverhead*100)
	}
	// Rekeying injects miss noise into the prime+probe channel.
	if r.RekeyMissNoiseActive <= r.RekeyMissNoiseBase {
		t.Fatalf("rekeying added no probe noise: %.3f vs %.3f",
			r.RekeyMissNoiseActive, r.RekeyMissNoiseBase)
	}
	// BP noise suppresses gadget executions monotonically in dose.
	if r.NoiseGadgetRate[500] >= r.NoiseGadgetRate[0] {
		t.Fatalf("max noise did not reduce the gadget rate: %v", r.NoiseGadgetRate)
	}
	// And costs benign prediction accuracy.
	if r.NoiseBenignMispredicts[500] <= r.NoiseBenignMispredicts[0] {
		t.Fatalf("noise did not raise benign mispredicts: %v", r.NoiseBenignMispredicts)
	}
	if !strings.Contains(r.Render(), "fencing") {
		t.Fatalf("render incomplete")
	}
}

func TestRHMDEnsembleCatchesEvasion(t *testing.T) {
	r := quick("rhmd", RHMD)
	if r.BaselineTPR < 0.9 {
		t.Fatalf("baseline single-detector TPR %.3f too low", r.BaselineTPR)
	}
	if r.EvadedSingle == 0 {
		t.Skipf("white-box evasion never succeeded against the target detector (subsets too redundant)")
	}
	if r.CaughtByEnsemble < 0.5 {
		t.Fatalf("ensemble caught only %.3f of evading samples:\n%s",
			r.CaughtByEnsemble, r.Render())
	}
}

func TestZeroDayBeyondCorpus(t *testing.T) {
	r := quick("zeroday", ZeroDay)
	if !r.AllDetected() {
		t.Fatalf("excluded attack evaded detection:\n%s", r.Render())
	}
	for name, rate := range r.TPRate {
		if rate < 0.5 {
			t.Errorf("%s TP rate %.3f", name, rate)
		}
	}
}

func TestSchedAttributionUnderMultiprogramming(t *testing.T) {
	r := quick("sched", Sched)
	if r.AttackerTPR < 0.8 {
		t.Fatalf("attacker-interval TPR %.3f under multiprogramming:\n%s",
			r.AttackerTPR, r.Render())
	}
	if r.BenignFPR > 0.15 {
		t.Fatalf("benign-interval FPR %.3f under multiprogramming:\n%s",
			r.BenignFPR, r.Render())
	}
	if r.Switches == 0 {
		t.Fatalf("no context switches happened")
	}
	if len(r.PerProgram) != 4 {
		t.Fatalf("programs attributed: %v", r.PerProgram)
	}
}
