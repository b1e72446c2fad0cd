package trace

import (
	"encoding/csv"
	"io"
	"strconv"
)

// WriteCSV serializes the dataset: a header row of metadata columns followed
// by the feature names, then one row per sample.
func (d *Dataset) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append([]string{"program", "category", "channel", "label", "run", "index", "interval"},
		d.FeatureNames...)
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, len(header))
	for i := range d.Samples {
		s := &d.Samples[i]
		row[0] = s.Program
		row[1] = s.Category
		row[2] = s.Channel
		row[3] = s.Label.String()
		row[4] = strconv.Itoa(s.Run)
		row[5] = strconv.Itoa(s.Index)
		row[6] = strconv.FormatUint(d.Interval, 10)
		for j, v := range s.Raw {
			row[7+j] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
