// Command bench is the repository's one benchmark: five named
// workloads over the whole stack — the library entry point
// (Env.RunPipelineContext), the service (hjserve over loopback TCP) and
// the cycle simulator — with end-to-end metrics from an untraced pass
// and per-layer metrics from a separate traced pass. BENCHMARK.json at
// the repository root names the workloads, metrics, units and bounds;
// README.md in this directory is the glossary.
//
//	go run ./bench                                   # every workload, both passes, result file
//	go run ./bench -workload part_agg                # one workload, untraced
//	go run ./bench -workload part_agg -trace 1       # its traced pass
//	go run ./bench -compare A.json B.json            # two result files against the bounds
//
// A single-workload run prints every metric by name with its unit and
// ends with one JSON line: {"correct", "attempted", "failed",
// "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// options are the command line.
type options struct {
	workload, scale string
	seed            int64
	seconds, trace  int
	compare         bool
	args            []string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload ("+fmt.Sprint(workloadNames)+"); empty runs them all")
	flag.Int64Var(&o.seed, "seed", 1, "seed every input and arrival schedule is generated from")
	flag.IntVar(&o.seconds, "seconds", 15, "length of the measurement window of one run")
	flag.IntVar(&o.trace, "trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	flag.StringVar(&o.scale, "scale", "full", "input sizes: full or smoke")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files: bench -compare A.json B.json")
	flag.Parse()
	o.args = flag.Args()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.compare {
		if len(o.args) != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(o.args[0], o.args[1])
	}
	if len(o.args) > 0 {
		return fmt.Errorf("unexpected arguments %v", o.args)
	}
	sc, ok := scaleByName(o.scale)
	if !ok {
		return fmt.Errorf("unknown -scale %q (accepted: full, smoke)", o.scale)
	}
	if o.seconds < 1 || o.trace < 0 || o.trace > 1 {
		return fmt.Errorf("-seconds must be positive and -trace 0 or 1")
	}
	root, err := moduleRoot()
	if err != nil {
		return err
	}
	spec, err := loadBenchmarkSpec()
	if err != nil {
		return err
	}
	cfg := runConfig{
		workload: o.workload, seed: o.seed, seconds: time.Duration(o.seconds) * time.Second,
		scale: sc, spec: spec, outDir: filepath.Join(root, "bench", "out"),
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	if o.workload == "" {
		return runAll(cfg)
	}
	detail, err := runOne(cfg, o.trace == 1)
	if err != nil {
		return err
	}
	printMetrics(os.Stdout, detail.Metrics)
	for _, name := range sortedKeys(detail.AsMeasured) {
		fmt.Printf("  as measured: %-29s %14.4f\n", name, detail.AsMeasured[name])
	}
	return json.NewEncoder(os.Stdout).Encode(detail.resultLine)
}

// resultLine is the last line a single-workload run prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runDetail is what a single-workload run leaves in the output
// directory for the all-workloads driver: the result line plus the
// sample summaries the line has no room for.
type runDetail struct {
	resultLine
	FirstFailure string `json:"first_failure,omitempty"`
	// AsMeasured: the untraced pass's timings before normalisation and
	// the host yardstick's median over the same window.
	AsMeasured map[string]float64 `json:"as_measured,omitempty"`
	Summaries  map[string]summary `json:"summaries"`
}

func detailPath(cfg runConfig, traced bool) string {
	pass := "e2e"
	if traced {
		pass = "trace"
	}
	return filepath.Join(cfg.outDir, fmt.Sprintf("last-%s-%s.json", cfg.workload, pass))
}

// runOne runs one pass of one workload in this process.
func runOne(cfg runConfig, traced bool) (runDetail, error) {
	def, ok := workloadByName(cfg.workload)
	if !ok {
		return runDetail{}, fmt.Errorf("unknown -workload %q (accepted: %v)", cfg.workload, workloadNames)
	}
	if def.prepare != nil {
		if err := def.prepare(cfg); err != nil {
			return runDetail{}, err
		}
	}
	pass := runE2E
	if traced {
		pass = runTrace
	}
	res, err := pass(def, cfg)
	if err != nil {
		return runDetail{}, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	line := resultLine{
		Correct:   res.rec.failed == 0,
		Attempted: res.rec.attempted,
		Failed:    res.rec.failed,
		Metrics:   res.metrics.export(),
	}
	detail := runDetail{resultLine: line, AsMeasured: res.asMeasured, Summaries: res.summaries}
	if res.rec.firstErr != nil {
		detail.FirstFailure = res.rec.firstErr.Error()
		fmt.Fprintf(os.Stderr, "bench: %s: %d of %d failed; first: %v\n", cfg.workload, line.Failed, line.Attempted, res.rec.firstErr)
	}
	doc, err := json.MarshalIndent(detail, "", "  ")
	if err != nil {
		return runDetail{}, err
	}
	if err := os.WriteFile(detailPath(cfg, traced), doc, 0o644); err != nil {
		return runDetail{}, err
	}
	return detail, nil
}

// printMetrics lists every metric by name with its value and unit.
func printMetrics(w *os.File, metrics map[string]metricValue) {
	for _, name := range sortedKeys(metrics) {
		m := metrics[name]
		fmt.Fprintf(w, "%-44s %14.4f %s\n", name, m.Value, m.Unit)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
