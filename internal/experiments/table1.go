package experiments

import (
	"fmt"
	"strings"

	"perspectron/internal/features"
)

// Table1Result regenerates Table I: groups of highly correlated features
// (|Pearson| > 0.98) that span multiple pipeline components — the raw
// material for replicated detectors.
type Table1Result struct {
	Threshold   float64
	TotalGroups int
	// Groups holds the cross-component groups, members named and ranked by
	// class correlation (as the paper's table presents them).
	Groups     [][]string
	Components [][]string
}

// Table1 computes the correlation grouping on the base dataset.
func Table1(cfg Config) *Table1Result {
	p := Prepare(cfg)
	cross := features.CrossComponentGroups(p.Sel.Groups, p.DS.Components)

	res := &Table1Result{
		Threshold:   features.DefaultSelectConfig().GroupThreshold,
		TotalGroups: len(p.Sel.Groups),
	}
	limit := 4 // the paper shows 4 of its 53 groups
	for gi, g := range cross {
		if gi >= limit {
			break
		}
		var names, comps []string
		for mi, j := range g.Members {
			if mi >= 18 { // Table I shows 18 rows per group
				break
			}
			names = append(names, p.DS.FeatureNames[j])
			comps = append(comps, p.DS.Components[j].String())
		}
		res.Groups = append(res.Groups, names)
		res.Components = append(res.Components, comps)
	}
	return res
}

// Render formats the groups side by side like Table I.
func (r *Table1Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table I — highly correlated feature groups (|c| > %.2f)\n", r.Threshold)
	fmt.Fprintf(&b, "%d groups total; showing the %d largest cross-component groups\n\n",
		r.TotalGroups, len(r.Groups))
	rows := 0
	for _, g := range r.Groups {
		if len(g) > rows {
			rows = len(g)
		}
	}
	header := make([]string, len(r.Groups))
	for i := range header {
		header[i] = fmt.Sprintf("group %d", i+1)
	}
	var cells [][]string
	for ri := 0; ri < rows; ri++ {
		row := make([]string, len(r.Groups))
		for gi, g := range r.Groups {
			if ri < len(g) {
				row[gi] = g[ri]
			}
		}
		cells = append(cells, row)
	}
	b.WriteString(table(header, cells))
	return b.String()
}
