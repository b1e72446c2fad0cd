package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// Workload names, as declared in BENCHMARK.json.
const (
	wServe       = "serve-sim"
	wExperiments = "experiments-quick"
	wTrain       = "train"
	wReplay      = "score-replay"
)

// catalogue is BENCHMARK.json: the workloads and the declared metrics.
type catalogue struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// metricDef declares one metric. Bound, for end-to-end metrics, is the
// share of the parent's median by which the metric may worsen.
type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadCatalogue(path string) (*catalogue, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the benchmark declaration: %w", err)
	}
	var c catalogue
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	if len(c.Workloads) == 0 || len(c.EndToEnd) == 0 || len(c.PerLayer) == 0 {
		return nil, fmt.Errorf("%s declares no workloads or no metrics", path)
	}
	return &c, nil
}

func (c *catalogue) hasWorkload(name string) bool {
	for _, w := range c.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}
