package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"perspectron/internal/encoding"
	"perspectron/internal/par"
	"perspectron/internal/sim"
	"perspectron/internal/workload"
	"perspectron/internal/workload/attacks"
	"perspectron/internal/workload/benign"
)

// fig1Counters are the input dimensions of the paper's Fig. 1: information
// about each attack "hops" between them, motivating replicated detectors.
var fig1Counters = []string{
	"membus.trans_dist::ReadResp",
	"commit.NonSpecStalls",
	"fetch.PendingQuiesceStallCycles",
	"tol2bus.trans_dist::CleanEvict",
	"branchPred.RASInCorrect",
	"branchPred.indirectMispredicted",
	"iq.NonSpecInstsAdded",
	"lsq.thread0.squashedLoads",
}

// Fig1Row is one program's normalized footprint across the Fig. 1
// dimensions.
type Fig1Row struct {
	Program string
	Label   workload.Label
	Values  []float64 // normalized to the corpus maximum per counter
	Bits    []int     // the paper's k-sparse representation (>= 0.5)
}

// Fig1Result regenerates Fig. 1.
type Fig1Result struct {
	Counters []string
	Rows     []Fig1Row
}

// Fig1 runs the five attacks of the paper's figure plus a safe program and
// reports each one's footprint across the eight dimensions.
func Fig1(cfg Config) *Fig1Result {
	progs := []workload.Program{
		attacks.SpectreRSB("fr"),
		attacks.Meltdown("fr"),
		attacks.FlushFlush(),
		attacks.FlushReload(),
		attacks.PrimeProbe(),
		benign.Bzip2(),
	}

	// The runs are independent, so they simulate concurrently through
	// par.Do, each into its own row of raw.
	raw := make([][]float64, len(progs))
	par.Do(len(progs), func(pi int) {
		p := progs[pi]
		m := sim.NewMachine(sim.DefaultConfig())
		m.RunStream(p.Stream(rand.New(rand.NewSource(cfg.Seed))), cfg.MaxInsts, cfg.Interval, func(int, []float64) bool { return true })
		vals := make([]float64, len(fig1Counters))
		for ci, name := range fig1Counters {
			c, ok := m.Reg.Lookup(name)
			if !ok {
				panic("fig1: missing counter " + name)
			}
			vals[ci] = c.Value()
		}
		raw[pi] = vals
	})

	// Normalize per counter to the corpus maximum: an encoding with global
	// maxima only, read at no particular execution point.
	enc := encoding.New(len(fig1Counters))
	idx := make([]int, len(fig1Counters))
	for ci := range idx {
		idx[ci] = ci
		for _, vals := range raw {
			enc.GlobalMax[ci] = max(enc.GlobalMax[ci], vals[ci])
		}
	}
	res := &Fig1Result{Counters: fig1Counters}
	for pi, p := range progs {
		row := Fig1Row{Program: p.Info().Name, Label: p.Info().Label,
			Values: enc.Scale(raw[pi], -1, nil)}
		fired, _ := enc.BitsPacked(raw[pi], idx, -1, nil)
		for ci := range idx {
			bit := 0
			if fired.Get(ci) {
				bit = 1
			}
			row.Bits = append(row.Bits, bit)
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// Render formats the figure as a table of normalized values plus the
// k-sparse signature vectors.
func (r *Fig1Result) Render() string {
	short := make([]string, len(r.Counters))
	for i, c := range r.Counters {
		parts := strings.Split(c, ".")
		short[i] = parts[len(parts)-1]
		if len(short[i]) > 18 {
			short[i] = short[i][:18]
		}
	}
	header := append([]string{"program", "class"}, short...)
	var rows [][]string
	for _, row := range r.Rows {
		cells := []string{row.Program, row.Label.String()}
		for _, v := range row.Values {
			cells = append(cells, fmt.Sprintf("%.2f", v))
		}
		rows = append(rows, cells)
	}
	var b strings.Builder
	b.WriteString("Fig. 1 — information hops between input dimensions\n")
	b.WriteString("(per-counter values normalized to the corpus maximum)\n\n")
	b.WriteString(table(header, rows))
	b.WriteString("\nk-sparse signatures (bit = value >= 0.5):\n")
	for _, row := range r.Rows {
		bits := make([]string, len(row.Bits))
		for i, v := range row.Bits {
			bits[i] = fmt.Sprint(v)
		}
		fmt.Fprintf(&b, "  %-14s <%s>\n", row.Program, strings.Join(bits, ","))
	}
	return b.String()
}
