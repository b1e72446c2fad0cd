// Package features implements the paper's feature-selection pipeline
// (§IV-B): Pearson correlation over the full counter space, grouping of
// closely correlated features (|c| > 0.98), decorrelation *within* a
// pipeline component while deliberately keeping correlated replicas in
// *different* components (replicated detectors), and a greedy per-component
// selection by mutual information with the class, down to the paper's 106
// features.
//
// Selection has one implementation: a per-call selection context (see
// context.go) that bit-packs the matrix once for the mutual information
// popcounts, and computes the moments and centered columns once for the
// dense class correlation and the correlation pair sweep. That sweep —
// O(f²·n) over the paper's counter space — runs blocked (cache-resident
// column tiles, balanced work items across GOMAXPROCS) and prunes pairs
// that provably cannot reach the grouping threshold via per-column suffix
// norms. The historical per-kernel implementation survives only in the
// package tests, as the bit-identity oracle and the serial benchmark
// baseline.
//
// It also provides the MAP-style committed-state feature subset used as the
// prior-work baseline in Table IV.
package features

import (
	"context"
	"math"
	"sort"
	"strings"

	"perspectron/internal/stats"
	"perspectron/internal/telemetry"
)

// colMoments holds per-feature mean and standard deviation over a sample set.
type colMoments struct {
	Mean, Std []float64
}

// miFromCounts computes the mutual information of one binarized feature
// with the class from its contingency counts: onesJ set bits in the
// feature column, c11i co-occurrences with the positive class, nPos
// positives, pY1 = nPos/n. The arithmetic is exactly the historical dense
// loop's, so any kernel that feeds it the same integers is bit-identical.
func miFromCounts(n, onesJ, c11i, nPos int, pY1 float64) float64 {
	c11 := float64(c11i)
	c10 := float64(onesJ - c11i)
	c01 := float64(nPos - c11i)
	c00 := float64(n - onesJ - (nPos - c11i))
	pX1 := (c11 + c10) / float64(n)
	mi := 0.0
	add := func(c, px, py float64) {
		if c == 0 || px == 0 || py == 0 {
			return
		}
		p := c / float64(n)
		mi += p * math.Log2(p/(px*py))
	}
	add(c11, pX1, pY1)
	add(c10, pX1, 1-pY1)
	add(c01, 1-pX1, pY1)
	add(c00, 1-pX1, 1-pY1)
	return mi
}

// Group is one set of mutually correlated features (Table I column).
type Group struct {
	Members []int // feature indices, ranked by |class correlation| desc
}

// unionFind is the single-linkage merge structure shared by every pair
// sweep; unions are always applied serially after the parallel sweep.
type unionFind struct{ parent []int }

func newUnionFind(n int) *unionFind {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return &unionFind{parent: p}
}

func (u *unionFind) find(i int) int {
	if u.parent[i] != i {
		u.parent[i] = u.find(u.parent[i])
	}
	return u.parent[i]
}

func (u *unionFind) union(a, b int) { u.parent[u.find(a)] = u.find(b) }

// assembleGroups turns a merged partition over the active features into the
// presented group list: members ranked by |class correlation| descending,
// groups ordered largest-first with ties broken by the smallest member
// index. The tie-break deliberately uses the smallest *feature index* (not
// Members[0] after the class-correlation re-ranking, as the original
// implementation did): equal-size groups now order by a layout-independent
// key instead of by whichever member happens to rank first.
func assembleGroups(active []int, uf *unionFind, cc []float64) []Group {
	byRoot := map[int][]int{}
	for _, j := range active {
		r := uf.find(j)
		byRoot[r] = append(byRoot[r], j)
	}
	var groups []Group
	var minIdx []int // smallest member of groups[i]; members arrive ascending
	for _, members := range byRoot {
		if len(members) < 2 {
			continue
		}
		lo := members[0]
		sort.Slice(members, func(i, k int) bool {
			return math.Abs(cc[members[i]]) > math.Abs(cc[members[k]])
		})
		groups = append(groups, Group{Members: members})
		minIdx = append(minIdx, lo)
	}
	sort.Sort(&groupSorter{groups: groups, minIdx: minIdx})
	return groups
}

// groupSorter orders groups by size descending, then smallest member index
// ascending — a total order (the partition makes minimum members unique),
// so the output never depends on map iteration or union order.
type groupSorter struct {
	groups []Group
	minIdx []int
}

func (s *groupSorter) Len() int { return len(s.groups) }
func (s *groupSorter) Less(i, k int) bool {
	if len(s.groups[i].Members) != len(s.groups[k].Members) {
		return len(s.groups[i].Members) > len(s.groups[k].Members)
	}
	return s.minIdx[i] < s.minIdx[k]
}
func (s *groupSorter) Swap(i, k int) {
	s.groups[i], s.groups[k] = s.groups[k], s.groups[i]
	s.minIdx[i], s.minIdx[k] = s.minIdx[k], s.minIdx[i]
}

// SelectConfig parameterizes the PerSpectron selection algorithm.
type SelectConfig struct {
	// GroupThreshold is the |Pearson| above which two features are
	// "closely correlated" (paper: 0.98).
	GroupThreshold float64
	// MaxFeatures is the selection budget m (paper: 106).
	MaxFeatures int
	// MinMI drops features carrying essentially no class information.
	MinMI float64
}

// DefaultSelectConfig returns the paper's parameters.
func DefaultSelectConfig() SelectConfig {
	return SelectConfig{GroupThreshold: 0.98, MaxFeatures: 106, MinMI: 1e-4}
}

// Selection is the outcome of the PerSpectron algorithm.
type Selection struct {
	// Indices are the selected feature indices in pick order.
	Indices []int
	// Groups are the cross-component correlation groups found (Table I).
	Groups []Group
	// MI holds the per-feature mutual information used for ranking.
	MI []float64
}

// Select runs the paper's three-step procedure over scaled features X
// with labels y and per-feature component assignments comps, attaching its
// telemetry spans to the caller's context (so a selection inside a training
// run nests under the "train" span instead of starting a fresh trace):
//
//  1. correlate all features and form groups at GroupThreshold;
//  2. within each component, keep only the most informative member of each
//     group (decorrelation), while members of the same group in *other*
//     components survive as replicated detectors;
//  3. greedily pick features per component in round-robin order of mutual
//     information until MaxFeatures.
//
// Both kernels of step 1 run off one shared selection context — the matrix
// is scanned, packed and centered exactly once per call.
func Select(ctx context.Context, X [][]float64, y []float64, comps []stats.Component, cfg SelectConfig) Selection {
	ctx, span := telemetry.StartSpan(ctx, "select")
	defer span.End()

	_, packSpan := telemetry.StartSpan(ctx, "pack")
	sc := newSelCtx(X, y)
	defer sc.release()
	packSpan.End()
	_, miSpan := telemetry.StartSpan(ctx, "mi")
	mi := sc.mutualInformation()
	miSpan.End()
	_, gSpan := telemetry.StartSpan(ctx, "groups")
	groups := sc.correlationGroups(cfg.GroupThreshold)
	gSpan.End()

	picked := pickFeatures(mi, groups, comps, cfg)
	reg := telemetry.Get()
	reg.Gauge("perspectron_select_groups").Set(float64(len(groups)))
	reg.Gauge("perspectron_select_features").Set(float64(len(picked)))
	return Selection{Indices: picked, Groups: groups, MI: mi}
}

// pickFeatures runs steps 2 and 3 of the selection over the per-feature
// mutual information and the correlation groups of step 1.
func pickFeatures(mi []float64, groups []Group, comps []stats.Component, cfg SelectConfig) []int {
	// Step 2: within-component decorrelation. For every (group, component)
	// pair keep the member with the highest MI.
	dropped := make([]bool, len(mi))
	for _, g := range groups {
		best := map[stats.Component]int{}
		for _, j := range g.Members {
			c := comps[j]
			if b, ok := best[c]; !ok || mi[j] > mi[b] {
				best[c] = j
			}
		}
		for _, j := range g.Members {
			if best[comps[j]] != j {
				dropped[j] = true
			}
		}
	}

	// Step 3: per-component ranked banks, drained round-robin.
	banks := make([][]int, stats.NumComponents)
	for j := range mi {
		if dropped[j] || mi[j] < cfg.MinMI {
			continue
		}
		c := comps[j]
		banks[c] = append(banks[c], j)
	}
	for c := range banks {
		b := banks[c]
		sort.Slice(b, func(i, k int) bool { return mi[b[i]] > mi[b[k]] })
	}

	var picked []int
	for len(picked) < cfg.MaxFeatures {
		progress := false
		for c := range banks {
			if len(banks[c]) == 0 {
				continue
			}
			picked = append(picked, banks[c][0])
			banks[c] = banks[c][1:]
			progress = true
			if len(picked) >= cfg.MaxFeatures {
				break
			}
		}
		if !progress {
			break
		}
	}
	return picked
}

// MAPFeatures returns the indices of the committed-state features a
// MAP-style malware detector monitors (instruction-class mix, architectural
// memory/branch counts, L1 access totals) — the prior-work baseline feature
// set of Table IV.
func MAPFeatures(names []string) []int {
	var idx []int
	for j, n := range names {
		switch {
		case strings.HasPrefix(n, "commit.op_class_0::"),
			n == "commit.committedInsts",
			n == "commit.branches",
			n == "commit.loads",
			n == "commit.stores",
			n == "commit.branchMispredicts",
			n == "icache.overall_accesses",
			n == "icache.overall_misses",
			n == "dcache.overall_accesses",
			n == "dcache.overall_misses",
			n == "dcache.overall_hits":
			idx = append(idx, j)
		}
	}
	return idx
}

// CrossComponentGroups filters groups down to those spanning at least two
// components — the replicated-detector groups Table I presents.
func CrossComponentGroups(groups []Group, comps []stats.Component) []Group {
	var out []Group
	for _, g := range groups {
		seen := map[stats.Component]bool{}
		for _, j := range g.Members {
			seen[comps[j]] = true
		}
		if len(seen) >= 2 {
			out = append(out, g)
		}
	}
	return out
}
