// Package experiments regenerates every table and figure of the paper's
// evaluation (the per-experiment index lives in DESIGN.md): Fig. 1
// information hops, Table I feature groups, Table II configuration, Table
// III attack-holdout CV with the §VI-B generalization numbers, Table IV
// model × feature-set comparison, Fig. 3 polymorphic evasion, Fig. 4
// bandwidth-reduction evasion, Fig. 5 ROC over sampling granularities, the
// §VI-A2 timing argument, and the §VII-C weight interpretation.
//
// Each experiment returns a structured result with a Render method; the
// cmd/experiments binary and the repository benchmarks drive them.
package experiments

import (
	"context"
	"fmt"
	"strings"

	"perspectron"
	"perspectron/internal/corpus"
	"perspectron/internal/features"
	"perspectron/internal/telemetry"
	"perspectron/internal/trace"
	"perspectron/internal/workload"
)

// Config scales every experiment.
type Config struct {
	Seed     int64
	MaxInsts uint64 // committed-path ops per program run
	Runs     int    // runs per program
	Interval uint64 // sampling granularity

	// Store is the corpus store experiments collect through; nil means the
	// process-wide corpus.Default(). Tests set a private store to count
	// collections in isolation.
	Store *corpus.Store
}

// store returns the artifact store this config collects through.
func (c Config) store() *corpus.Store {
	if c.Store != nil {
		return c.Store
	}
	return corpus.Default()
}

// CollectConfig returns the trace-collection settings the config describes —
// the corpus store's half of the cache fingerprint.
func (c Config) CollectConfig() trace.CollectConfig {
	return trace.CollectConfig{
		MaxInsts: c.MaxInsts,
		Interval: c.Interval,
		Seed:     c.Seed,
		Runs:     c.Runs,
	}
}

// DefaultConfig is the full-scale setting used by cmd/experiments.
func DefaultConfig() Config {
	return Config{Seed: 1, MaxInsts: 300_000, Runs: 2, Interval: 10_000}
}

// QuickConfig is a reduced setting for benchmarks and smoke tests.
func QuickConfig() Config {
	return Config{Seed: 1, MaxInsts: 100_000, Runs: 1, Interval: 10_000}
}

// collect fetches (progs, cfg)'s dataset through the artifact store: a
// corpus any experiment in this process already collected — at any config —
// is served from memory (or the on-disk cache) instead of re-simulated.
func collect(progs []workload.Program, cfg Config) *trace.Dataset {
	return cfg.store().Dataset(progs, cfg.CollectConfig())
}

// Prepared bundles a dataset with its maximum matrix and PerSpectron
// selection — the shared front half of most experiments. It is the corpus
// store's memoized artifact type: every experiment asking for the same
// (corpus, config) receives the identical bundle.
type Prepared = corpus.Prepared

// Prepare returns the training corpus's (perspectron.TrainingWorkloads)
// dataset with its maximum matrix and feature selection, computed at most
// once per (corpus, config) via the artifact store. Its collect and select
// phases nest under the prepare span.
func Prepare(cfg Config) *Prepared {
	ctx, span := telemetry.StartSpan(context.Background(), "prepare")
	defer span.End()
	return cfg.store().PreparedCtx(ctx, perspectron.TrainingWorkloads(), cfg.CollectConfig(), features.DefaultSelectConfig())
}

// table renders rows as fixed-width text with a header underline.
func table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, r := range rows {
		line(r)
	}
	return b.String()
}

// sparkline renders a score series as a compact unicode strip chart.
func sparkline(vals []float64, lo, hi float64) string {
	const ramp = " ▁▂▃▄▅▆▇█"
	runes := []rune(ramp)
	var b strings.Builder
	for _, v := range vals {
		f := (v - lo) / (hi - lo)
		if f < 0 {
			f = 0
		}
		if f > 1 {
			f = 1
		}
		b.WriteRune(runes[int(f*float64(len(runes)-1))])
	}
	return b.String()
}
