package experiments

import (
	"strings"
	"testing"
)

func TestFaultTolQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a detector")
	}
	res := quick("faulttol", FaultTol)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("swept %d dropout rates, want 6", len(res.Rows))
	}
	// The zero-fault point must match the clean detector: everything
	// detected at full coverage.
	clean := res.Rows[0]
	if clean.Rate != 0 || clean.Detected != clean.Attacks {
		t.Fatalf("clean run missed attacks: %d/%d", clean.Detected, clean.Attacks)
	}
	if clean.MeanCoverage < 0.999 {
		t.Fatalf("clean run coverage = %.3f, want 1", clean.MeanCoverage)
	}
	// The acceptance bar: 20% dropout keeps every training-set attack
	// detected (the replicated-detector resilience claim).
	if got := detectionRateAt(res, 0.2); got != 1 {
		t.Fatalf("detection rate at 20%% dropout = %.3f, want 1.0", got)
	}
	// Coverage must reflect the injected loss.
	for _, row := range res.Rows[1:] {
		if row.MeanCoverage > 1-row.Rate/2 {
			t.Fatalf("dropout %.0f%% reported coverage %.3f — faults not reaching the scorer",
				row.Rate*100, row.MeanCoverage)
		}
	}
	out := res.Render()
	for _, want := range []string{"dropout", "detected", "coverage", "benign FP"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	if detectionRateAt(res, 0.77) != -1 {
		t.Fatalf("unswept rate should report -1")
	}
}

// detectionRateAt returns the attack detection rate at the given dropout
// rate, or -1 if that point was not swept.
func detectionRateAt(r *FaultTolResult, rate float64) float64 {
	for _, row := range r.Rows {
		if row.Rate == rate && row.Attacks > 0 {
			return float64(row.Detected) / float64(row.Attacks)
		}
	}
	return -1
}
