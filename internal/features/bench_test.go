package features_test

import (
	"context"
	"testing"

	"perspectron/internal/experiments"
	"perspectron/internal/features"
	"perspectron/internal/stats"
	"perspectron/internal/trace"
)

// BenchmarkSelect compares the serial per-kernel oracle (the seed
// implementation, kept in the package tests) against the selection
// context on the quick corpus's scaled matrix. `make bench-select` fails
// unless parallel-packed beats serial-dense on a fresh run.
func BenchmarkSelect(b *testing.B) {
	p := experiments.Prepare(experiments.QuickConfig())
	X, y := trace.Scaled(p.Enc, p.DS, nil)
	run := func(sel func([][]float64, []float64, []stats.Component, features.SelectConfig) features.Selection) func(*testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if s := sel(X, y, p.DS.Components, features.DefaultSelectConfig()); len(s.Indices) == 0 {
					b.Fatal("empty selection")
				}
			}
		}
	}
	b.Run("serial-dense", run(features.LegacySelect))
	b.Run("parallel-packed", run(func(X [][]float64, y []float64, comps []stats.Component, cfg features.SelectConfig) features.Selection {
		return features.Select(context.Background(), X, y, comps, cfg)
	}))
}
