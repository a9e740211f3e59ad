package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// benchmarkSpec is the part of BENCHMARK.json the harness reads. It is
// the one list of metric names and units: a pass emits exactly the
// metrics its section of the file names.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	// EndToEnd is what a caller of Env.RunPipelineContext or a client of
	// hjserve sees. Every workload reports every one of them, from the
	// untraced pass.
	EndToEnd []specMetric `json:"end_to_end"`
	// PerLayer metrics are prefixed with the module they time or count.
	// Every workload reports every one of them from the traced pass; 0
	// means the workload never enters that layer, which for several
	// pairings is itself the prediction (README, interaction table).
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// exactLayer lists the per-layer metrics that are counts or simulated
// cycles: two runs of one commit on one seed must agree on them to the
// last digit, and -compare fails if they do not. The list lives here
// because a BENCHMARK.json entry may carry no key beyond name, unit and
// better.
var exactLayer = []string{
	"core.cycles_per_probe_tuple_baseline",
	"core.cycles_per_probe_tuple_group",
	"core.cycles_per_probe_tuple_pipelined",
	"core.sim_group_speedup",
	"core.sim_pipelined_speedup",
	"engine.sim_cycles_ratio",
	"memsim.baseline_stall_frac",
	"memsim.group_stall_frac",
	"memsim.l2_misses_per_probe_tuple_baseline",
	"memsim.prefetch_full_hidden_frac_group",
	"native.demoted_pairs",
	"native.recursion_depth",
	"native.resident_pairs",
	"native.spilled_pairs",
	"spill.bytes_written_per_build_byte",
	"spill.read_amp",
}

// loadBenchmarkSpec reads BENCHMARK.json from the module root.
func loadBenchmarkSpec() (benchmarkSpec, error) {
	var spec benchmarkSpec
	root, err := moduleRoot()
	if err != nil {
		return spec, err
	}
	doc, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(doc, &spec); err != nil {
		return spec, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	layer := make(map[string]bool, len(spec.PerLayer))
	for _, m := range spec.PerLayer {
		layer[m.Name] = true
	}
	for _, name := range exactLayer {
		if !layer[name] {
			return spec, fmt.Errorf("BENCHMARK.json: exact metric %s is not in per_layer", name)
		}
	}
	return spec, nil
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects one pass's values against its section of
// BENCHMARK.json.
type metricSet struct {
	defs   []specMetric
	values map[string]float64
}

func newMetricSet(defs []specMetric) *metricSet {
	return &metricSet{defs: defs, values: make(map[string]float64, len(defs))}
}

// set records a value. An unknown name or a non-finite value is a bug
// in the harness, not a measurement.
func (m *metricSet) set(name string, v float64) {
	for _, d := range m.defs {
		if d.Name == name {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				panic(fmt.Sprintf("bench: metric %s is not finite", name))
			}
			m.values[name] = v
			return
		}
	}
	panic("bench: undefined metric " + name)
}

// get returns a value set earlier (0 if none).
func (m *metricSet) get(name string) float64 { return m.values[name] }

// export renders every defined metric, unset ones as 0.
func (m *metricSet) export() map[string]metricValue {
	out := make(map[string]metricValue, len(m.defs))
	for _, d := range m.defs {
		out[d.Name] = metricValue{Value: m.values[d.Name], Unit: d.Unit}
	}
	return out
}
