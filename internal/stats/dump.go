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
		if _, err := fmt.Fprintf(bw, "%-56s %14.6g  # %s\n", c.meta.name, c.Value(), c.meta.desc); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(bw, "---------- End Simulation Statistics   ----------"); err != nil {
		return err
	}
	return bw.Flush()
}
