package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// specPath is the benchmark's declaration, at the root of the checkout the
// benchmark runs from.
const specPath = "BENCHMARK.json"

// benchSpec mirrors BENCHMARK.json. The run reads it to know which metrics
// each pass owes and -compare reads the bounds from it, so the names and
// bounds live in one place.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec() (*benchSpec, error) {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return nil, fmt.Errorf("read %s (run from the root of the checkout): %w", specPath, err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("parse %s: %w", specPath, err)
	}
	return &spec, nil
}

// owed lists the metrics one pass must report: the end-to-end ones untraced,
// the per-layer ones traced.
func (s *benchSpec) owed(traced bool) []metricSpec {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}
