package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"perspectron/internal/stats"
	"perspectron/internal/workload"
)

// readCSV parses a dataset written by WriteCSV: the round-trip oracle for
// WriteCSV. Component metadata is not
// stored in the CSV; components is optional and may be nil (feature
// selection then treats all features as one component).
func readCSV(r io.Reader, components []stats.Component) (*Dataset, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	const meta = 7
	if len(header) <= meta {
		return nil, fmt.Errorf("trace: header too short (%d columns)", len(header))
	}
	d := &Dataset{FeatureNames: header[meta:], Components: components}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: reading row: %w", err)
		}
		if len(rec) != len(header) {
			return nil, fmt.Errorf("trace: row width %d != header %d", len(rec), len(header))
		}
		run, err := strconv.Atoi(rec[4])
		if err != nil {
			return nil, fmt.Errorf("trace: bad run %q: %w", rec[4], err)
		}
		idx, err := strconv.Atoi(rec[5])
		if err != nil {
			return nil, fmt.Errorf("trace: bad index %q: %w", rec[5], err)
		}
		if d.Interval == 0 {
			iv, err := strconv.ParseUint(rec[6], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("trace: bad interval %q: %w", rec[6], err)
			}
			d.Interval = iv
		}
		label := workload.Benign
		if rec[3] == workload.Malicious.String() {
			label = workload.Malicious
		}
		raw := make([]float64, len(rec)-meta)
		for j := meta; j < len(rec); j++ {
			v, err := strconv.ParseFloat(rec[j], 64)
			if err != nil {
				return nil, fmt.Errorf("trace: bad value %q: %w", rec[j], err)
			}
			raw[j-meta] = v
		}
		d.Samples = append(d.Samples, Sample{
			Program: rec[0], Category: rec[1], Channel: rec[2],
			Label: label, Run: run, Index: idx, Raw: raw,
		})
	}
	return d, nil
}
