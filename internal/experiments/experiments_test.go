package experiments

import (
	"strings"
	"sync"
	"testing"

	"perspectron/internal/workload"
)

// sharedPrepared caches the expensive core-corpus preparation across tests.
var (
	prepOnce sync.Once
	prep     *Prepared
)

func quickPrep() *Prepared {
	prepOnce.Do(func() { prep = Prepare(QuickConfig()) })
	return prep
}

// quickRuns holds one memoized QuickConfig result per experiment name, so
// the per-experiment tests and TestQuickGolden share a single run of each
// experiment per test binary.
var quickRuns sync.Map // name -> *quickRun

type quickRun struct {
	once sync.Once
	res  any
}

// quick returns run(QuickConfig()), computed at most once per test binary
// under name.
func quick[T any](name string, run func(Config) T) T {
	r, _ := quickRuns.LoadOrStore(name, new(quickRun))
	q := r.(*quickRun)
	q.once.Do(func() { q.res = run(QuickConfig()) })
	return q.res.(T)
}

func TestPrepareSelects106(t *testing.T) {
	p := quickPrep()
	if got := len(p.Sel.Indices); got != 106 {
		t.Fatalf("selected %d features, want 106", got)
	}
	b, m := p.DS.ClassCounts()
	if b == 0 || m == 0 {
		t.Fatalf("class counts %d/%d", b, m)
	}
}

func TestFig1DistinctSignatures(t *testing.T) {
	r := quick("fig1", Fig1)
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if !r.DistinctSignatures() {
		t.Fatalf("attack signatures not distinct from the safe program:\n%s", r.Render())
	}
	if !strings.Contains(r.Render(), "k-sparse signatures") {
		t.Fatalf("render incomplete")
	}
}

func TestTable1CrossComponentGroups(t *testing.T) {
	r := quick("table1", Table1)
	if len(r.Groups) == 0 {
		t.Fatalf("no cross-component correlation groups found")
	}
	// Each listed group's members cover >= 2 distinct components by
	// construction.
	for i, comps := range r.Components {
		seen := map[string]bool{}
		for _, c := range comps {
			seen[c] = true
		}
		if len(seen) < 2 {
			t.Fatalf("group %d spans %d components, want >= 2", i, len(seen))
		}
	}
	if r.TotalGroups < len(r.Groups) {
		t.Fatalf("group accounting inconsistent")
	}
	if !strings.Contains(r.Render(), "group 1") {
		t.Fatalf("render incomplete")
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	r := Table2()
	text := r.Render()
	for _, want := range []string{"192", "4096", "Tournament", "32KB", "2MB", "8"} {
		if !strings.Contains(text, want) {
			t.Fatalf("Table II missing %q:\n%s", want, text)
		}
	}
}

func TestTable3HoldoutGeneralizes(t *testing.T) {
	r := quick("table3", Table3)
	if r.MeanAccuracy < 0.90 {
		t.Fatalf("CV accuracy %.4f below 0.90:\n%s", r.MeanAccuracy, r.Render())
	}
	// The paper's headline generalization: held-out CacheOut at 94% TP and
	// SpectreV2 at 91% TP. Require the same ballpark.
	if r.CacheOutTP < 0.85 {
		t.Fatalf("CacheOut holdout TP %.3f (paper 0.94)", r.CacheOutTP)
	}
	if r.SpectreV2TP < 0.85 {
		t.Fatalf("SpectreV2 holdout TP %.3f (paper 0.91)", r.SpectreV2TP)
	}
}

func TestFig5TenKBest(t *testing.T) {
	r := quick("fig5", Fig5)
	if len(r.Curves) != 3 {
		t.Fatalf("curves = %d", len(r.Curves))
	}
	best := r.Best()
	if best.AUC < 0.95 {
		t.Fatalf("best AUC %.4f (paper 0.9949)", best.AUC)
	}
	// The paper's finding: the 10K interval dominates coarser sampling.
	if best.Interval != 10_000 {
		t.Logf("note: best interval %d (paper: 10K)", best.Interval)
	}
	if r.Curves[0].AUC+1e-9 < r.Curves[2].AUC {
		t.Fatalf("10K AUC %.4f worse than 100K AUC %.4f — ordering inverted",
			r.Curves[0].AUC, r.Curves[2].AUC)
	}
}

func TestFig3AllVariantsDetected(t *testing.T) {
	r := quick("fig3", Fig3)
	if len(r.Series) != 12 {
		t.Fatalf("series = %d, want 12", len(r.Series))
	}
	if !r.AllDetected() {
		t.Fatalf("polymorphic variant evaded detection:\n%s", r.Render())
	}
}

func TestFig4AllBandwidthsDetected(t *testing.T) {
	r := quick("fig4", Fig4)
	if len(r.Series) != 4 {
		t.Fatalf("series = %d", len(r.Series))
	}
	if !r.AllDetected() {
		t.Fatalf("bandwidth-reduced attack evaded detection:\n%s", r.Render())
	}
	// The unmodified attack must saturate at least as fast as the slowest.
	if r.Series[0].FirstFlag > r.Series[3].FirstFlag+2 {
		t.Fatalf("full-rate attack flagged later (%d) than 0.25x (%d)",
			r.Series[0].FirstFlag, r.Series[3].FirstFlag)
	}
}

func TestTimingMatchesPaperArgument(t *testing.T) {
	r := Timing()
	if r.SamplingUs < 2 || r.SamplingUs > 4 {
		t.Fatalf("sampling interval %.2f µs, paper ~3", r.SamplingUs)
	}
	if r.SamplesIn61Us < 15 {
		t.Fatalf("samples in 61 µs = %d, paper 20", r.SamplesIn61Us)
	}
	if !r.Fits {
		t.Fatalf("inference does not fit the sampling interval")
	}
	if !strings.Contains(r.Render(), "61 µs") {
		t.Fatalf("render incomplete")
	}
}

func TestWeightsCoverComponents(t *testing.T) {
	r := quick("weights", Weights)
	if len(r.ByComponent) < 8 {
		t.Fatalf("selected features cover only %d components — replication too narrow",
			len(r.ByComponent))
	}
	if len(r.TopPositive) == 0 || len(r.TopNegative) == 0 {
		t.Fatalf("weight extremes missing")
	}
	if r.TopPositive[0].Weight <= 0 {
		t.Fatalf("strongest suspicious feature has weight %v", r.TopPositive[0].Weight)
	}
	if r.TopNegative[0].Weight >= 0 {
		t.Fatalf("strongest benign feature has weight %v", r.TopNegative[0].Weight)
	}
}

func TestTable4OrderingHolds(t *testing.T) {
	r := quick("table4", Table4)
	if len(r.Rows) != 8 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	ps := r.Row("PerSpectron", "PerSpectron")
	lrMAP := r.Row("LogisticRegression", "MAP")
	if ps == nil || lrMAP == nil {
		t.Fatalf("missing rows:\n%s", r.Render())
	}
	// The paper's headline comparison: PerSpectron beats the MAP-feature
	// prior-work baseline decisively.
	if ps.MeanAccuracy <= lrMAP.MeanAccuracy {
		t.Fatalf("PerSpectron %.4f <= LogReg+MAP %.4f:\n%s",
			ps.MeanAccuracy, lrMAP.MeanAccuracy, r.Render())
	}
	// Feature-set effect: the same model improves with PerSpectron features.
	dtMAP := r.Row("DT-CART", "MAP")
	dtPS := r.Row("DT-CART", "PerSpectron")
	if dtPS.MeanAccuracy+0.02 < dtMAP.MeanAccuracy {
		t.Fatalf("PerSpectron features degraded DT-CART: %.4f vs %.4f",
			dtPS.MeanAccuracy, dtMAP.MeanAccuracy)
	}
	// PerSpectron detects all polymorphic variants; the MAP baseline
	// misses some (paper: LogReg+MAP could not detect polymorphic attacks
	// until post leakage).
	if ps.PolyDetected != 12 {
		t.Fatalf("PerSpectron detected %d/12 polymorphic variants", ps.PolyDetected)
	}
}

// DistinctSignatures reports whether every malicious row's bit vector
// differs from the safe program's — the property the paper's example
// vectors illustrate.
func (r *Fig1Result) DistinctSignatures() bool {
	var safe []int
	for _, row := range r.Rows {
		if row.Label == workload.Benign {
			safe = row.Bits
		}
	}
	if safe == nil {
		return false
	}
	for _, row := range r.Rows {
		if row.Label == workload.Benign {
			continue
		}
		same := true
		for i := range row.Bits {
			if row.Bits[i] != safe[i] {
				same = false
				break
			}
		}
		if same {
			return false
		}
	}
	return true
}

// Best returns the curve with the highest AUC.
func (r *Fig5Result) Best() Fig5Curve {
	best := r.Curves[0]
	for _, c := range r.Curves[1:] {
		if c.AUC > best.AUC {
			best = c
		}
	}
	return best
}

// Row returns the row for a model/feature-set pair.
func (r *Table4Result) Row(model, featureSet string) *Table4Row {
	for i := range r.Rows {
		if r.Rows[i].Model == model && r.Rows[i].FeatureSet == featureSet {
			return &r.Rows[i]
		}
	}
	return nil
}
