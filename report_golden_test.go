package perspectron

// Frozen report goldens: fingerprints of the full output of Monitor,
// faulty Detector.Replay, MonitorWithPolicy and faulty Classifier.Replay
// for fixed (workload, seed) pairs against the shared test models. Every sample's score bits,
// flags and coverage, the first flag, the leak timeline and the mitigation
// timeline all feed the hash, so any drift in how a report is scored or
// folded fails here bit for bit. The five attack goldens were re-frozen once,
// when LeakSamples stopped reporting a disclosure in an interval the run
// never delivered (index len(Samples)); every other row hashed identically
// before and after.

import (
	"context"
	"testing"
)

// fingerprintRows hashes rows through hashMatrix, prefixing each row with its
// length so that row boundaries are part of the fingerprint.
func fingerprintRows(rows [][]float64) string {
	framed := make([][]float64, len(rows))
	for i, row := range rows {
		framed[i] = append([]float64{float64(len(row))}, row...)
	}
	return hashMatrix(framed)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// reportRows flattens a Report into fingerprint rows.
func reportRows(r *Report) [][]float64 {
	rows := [][]float64{{
		b2f(r.Malicious), b2f(r.Detected), float64(r.FirstFlag),
		b2f(r.LeakBefore), b2f(r.Degraded), r.Coverage,
	}}
	for _, s := range r.Samples {
		rows = append(rows, []float64{float64(s.Index), float64(s.Insts), s.Score, b2f(s.Flagged)})
	}
	leaks := make([]float64, len(r.LeakSamples))
	for i, l := range r.LeakSamples {
		leaks[i] = float64(l)
	}
	return append(rows, leaks)
}

// mitigatedRows flattens a MitigatedReport: the embedded Report, the
// per-sample ActiveAt timeline and the mitigation counters.
func mitigatedRows(r *MitigatedReport) [][]float64 {
	rows := reportRows(&r.Report)
	for _, active := range r.ActiveAt {
		row := make([]float64, len(active))
		for i, m := range active {
			row[i] = float64(m)
		}
		rows = append(rows, row)
	}
	return append(rows, []float64{r.SpecLoadsBlocked, r.Rekeys, float64(r.MitigatedIntervals)})
}

// classificationRows flattens a Classification, with votes in the
// classifier's class order.
func classificationRows(c *Classifier, res *Classification) [][]float64 {
	votes := make([]float64, len(c.Classes))
	winner := -1.0
	for i, class := range c.Classes {
		votes[i] = float64(res.Votes[class])
		if class == res.Class {
			winner = float64(i)
		}
	}
	return [][]float64{votes, {winner, res.Confidence, b2f(res.Degraded), res.Coverage}}
}

func TestReportGoldens(t *testing.T) {
	det := sharedDetector(t)
	cls := sharedClassifier(t)
	cases := []struct {
		name   string
		golden string
		rows   func() ([][]float64, error)
	}{
		{"monitor/spectreV1", "597f0cf8458228df", func() ([][]float64, error) {
			r, err := det.Monitor(AttackByName("spectreV1", "fr"), 80_000, 7)
			if err != nil {
				return nil, err
			}
			return reportRows(r), nil
		}},
		{"monitor/prime+probe", "f951578d570501f6", func() ([][]float64, error) {
			r, err := det.Monitor(AttackByName("prime+probe", ""), 80_000, 5)
			if err != nil {
				return nil, err
			}
			return reportRows(r), nil
		}},
		{"monitor/bzip2", "cf2d85f1e32a7f7e", func() ([][]float64, error) {
			r, err := det.Monitor(BenignWorkloads()[0], 60_000, 3)
			if err != nil {
				return nil, err
			}
			return reportRows(r), nil
		}},
		{"replay-faulty/spectreV1-dropout", "84091ce1c22fb074", func() ([][]float64, error) {
			rec, err := Record(context.Background(), AttackByName("spectreV1", "fr"), 80_000, 7, det.Interval)
			if err != nil {
				return nil, err
			}
			r, err := det.Replay(rec, &FaultConfig{Seed: 3, Dropout: 0.3})
			if err != nil {
				return nil, err
			}
			return reportRows(r), nil
		}},
		{"policy/spectreV1-fence", "bdfde6700d00a3c0", func() ([][]float64, error) {
			r, err := det.MonitorWithPolicy(AttackByName("spectreV1", "fr"), 100_000, 9,
				EscalationPolicy(0.25, 0.5, MitigateFence))
			if err != nil {
				return nil, err
			}
			return mitigatedRows(r), nil
		}},
		{"policy/prime+probe-rekey", "49394de315fbf952", func() ([][]float64, error) {
			r, err := det.MonitorWithPolicy(AttackByName("prime+probe", ""), 80_000, 9,
				EscalationPolicy(0.2, 0.4, MitigateRekey))
			if err != nil {
				return nil, err
			}
			return mitigatedRows(r), nil
		}},
		{"classify-replay-faulty/flush+reload-dropout", "f6222e4e5c03ff21", func() ([][]float64, error) {
			rec, err := Record(context.Background(), AttackByName("flush+reload", ""), 80_000, 5, cls.Interval)
			if err != nil {
				return nil, err
			}
			r, err := cls.Replay(rec, &FaultConfig{Seed: 3, Dropout: 0.3})
			if err != nil {
				return nil, err
			}
			return classificationRows(cls, r), nil
		}},
	}
	for _, tc := range cases {
		rows, err := tc.rows()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := fingerprintRows(rows); got != tc.golden {
			t.Errorf("%s: fingerprint %s, golden %s", tc.name, got, tc.golden)
		}
	}
}
