package stats

import (
	"bufio"
	"fmt"
	"io"
)

// Dump writes all counters in gem5 stats.txt style: one
// "name value # description" line per counter, in registry order, framed by
// begin/end markers. Zero-valued counters are included (gem5 prints them;
// they are the zero-variance features selection later discards).
func (r *Registry) Dump(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "---------- Begin Simulation Statistics ----------"); err != nil {
		return err
	}
	for _, c := range r.counters {
		if _, err := fmt.Fprintf(bw, "%-56s %14.6g  # %s\n", c.meta.name, c.val, c.meta.desc); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(bw, "---------- End Simulation Statistics   ----------"); err != nil {
		return err
	}
	return bw.Flush()
}

// DumpDelta writes only counters whose value differs from the prev
// snapshot, as "name delta" lines — the compact per-interval form.
func (r *Registry) DumpDelta(w io.Writer, prev []float64) error {
	if len(prev) != len(r.counters) {
		return fmt.Errorf("stats: snapshot length %d != %d counters", len(prev), len(r.counters))
	}
	bw := bufio.NewWriter(w)
	for i, c := range r.counters {
		if d := c.val - prev[i]; d != 0 {
			if _, err := fmt.Fprintf(bw, "%-56s %14.6g\n", c.meta.name, d); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
