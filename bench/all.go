package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"hashjoin"
)

// hostInfo fingerprints where a result file was measured; numbers from
// different fingerprints are not comparable.
type hostInfo struct {
	NumCPU      int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	Kernel      string `json:"kernel"`
	THP         string `json:"thp"`
	HasPrefetch bool   `json:"native_has_prefetch"`
}

func fingerprint() hostInfo {
	kernel, thp := kernelAndTHP()
	return hostInfo{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Kernel: kernel, THP: thp, HasPrefetch: hashjoin.NativeHasPrefetch(),
	}
}

// constants is every frozen value the numbers depend on.
type constants struct {
	Parallelism   int                       `json:"parallelism"`
	WarmupQueries int                       `json:"warmup_queries"`
	SetupRepeats  int                       `json:"setup_repeats"`
	E2ERuns       int                       `json:"e2e_runs"`
	LayerReps     int                       `json:"layer_reps"`
	HostRef       map[string]float64        `json:"host_ref"`
	Inproc        map[string]map[string]int `json:"inproc"`
	Sim           map[string]int            `json:"sim"`
	ServePairs    map[string]int            `json:"serve_pairs"`
	ServeMixPct   map[string]int            `json:"serve_mix_pct"`
	ServeRatesQPS [3]float64                `json:"serve_rates_qps"`
	ServeLimitMs  float64                   `json:"serve_limit_ms"`
}

func frozen(sc scale) constants {
	c := constants{
		Parallelism: parallelism(), WarmupQueries: warmupQueries, SetupRepeats: setupRepeats, E2ERuns: e2eRuns, LayerReps: layerReps,
		HostRef: map[string]float64{
			"nominal_ms": refNominalMs, "every_ms": ms(refEvery), "build": refBuild, "probe": refProbe,
			"row": refRow, "slots": refSlots, "out_bytes": refOutBytes, "spin": refSpin,
			"serve_slice_ms": ms(serveSlice),
		},
		Inproc: map[string]map[string]int{},
		Sim:    map[string]int{"build": sc.sim.nBuild, "probe": sc.sim.nProbe, "tuple": sc.sim.tuple},
		ServePairs: map[string]int{
			"d_build": sc.serve.defBuild, "d_probe": sc.serve.defProbe,
			"c_build": sc.serve.smallBuild, "c_probe": sc.serve.smallProbe, "tuple": sc.serve.tuple,
		},
		ServeMixPct: map[string]int{
			"default": pctDefault, "cached": pctCached, "typed": pctTyped, "agg": pctAgg,
			"overwrite": 100 - pctDefault - pctCached - pctTyped - pctAgg,
		},
		ServeRatesQPS: sc.serve.rates,
		ServeLimitMs:  sc.serve.limitMs,
	}
	for name, s := range sc.inproc {
		agg := 0
		if s.agg {
			agg = 1
		}
		c.Inproc[name] = map[string]int{
			"build": s.nBuild, "probe": s.nProbe, "hits": s.nHit, "dup_run": s.dupRun,
			"tuple": s.tuple, "fanout": s.fanout, "agg": agg, "budget": s.budget,
		}
	}
	return c
}

// workloadResult is one workload in the result file: the end-to-end
// metrics as medians over the untraced runs, each run as it was
// printed, and the one traced pass.
type workloadResult struct {
	E2E      map[string]metricValue `json:"e2e"`
	E2ERuns  []runDetail            `json:"e2e_runs"`
	PerLayer runDetail              `json:"per_layer"`
}

// resultFile is what `go run ./bench` writes and -compare reads.
type resultFile struct {
	Host      hostInfo                  `json:"host"`
	GitCommit string                    `json:"git_commit"`
	Seed      int64                     `json:"seed"`
	Scale     string                    `json:"scale"`
	Seconds   float64                   `json:"seconds"`
	Constants constants                 `json:"constants"`
	Workloads map[string]workloadResult `json:"workloads"`
	// FailedFrac is failed ÷ attempted over every pass of every workload.
	FailedFrac float64 `json:"failed_frac"`
}

// runAll runs every workload — each pass in its own child process, so
// no workload inherits another's heap or high-water mark — and writes
// the result file. The untraced pass is repeated e2eRuns times,
// round-robin over the workloads.
func runAll(cfg runConfig) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	out := resultFile{
		Host: fingerprint(), GitCommit: gitCommit(), Seed: cfg.seed, Scale: cfg.scale.name,
		Seconds: cfg.seconds.Seconds(), Constants: frozen(cfg.scale),
		Workloads: map[string]workloadResult{},
	}
	attempted, failed := 0, 0
	child := func(name string, traced bool) (runDetail, error) {
		wcfg := cfg
		wcfg.workload = name
		pass := "0"
		if traced {
			pass = "1"
		}
		fmt.Printf("== %s (trace %s)\n", name, pass)
		cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(cfg.seed, 10),
			"-seconds", strconv.Itoa(int(cfg.seconds.Seconds())), "-trace", pass, "-scale", cfg.scale.name)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		// Everything but the child's last line, the JSON the detail file
		// repeats.
		lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
		os.Stdout.Write(append(bytes.Join(lines[:len(lines)-1], []byte("\n")), '\n'))
		var detail runDetail
		if err != nil {
			return detail, fmt.Errorf("%s (trace %s): %w", name, pass, err)
		}
		doc, err := os.ReadFile(detailPath(wcfg, traced))
		if err != nil {
			return detail, err
		}
		if err := json.Unmarshal(doc, &detail); err != nil {
			return detail, fmt.Errorf("%s: %w", detailPath(wcfg, traced), err)
		}
		attempted += detail.Attempted
		failed += detail.Failed
		return detail, nil
	}
	for run := 0; run < e2eRuns; run++ {
		for _, name := range workloadNames {
			detail, err := child(name, false)
			if err != nil {
				return err
			}
			wr := out.Workloads[name]
			wr.E2ERuns = append(wr.E2ERuns, detail)
			out.Workloads[name] = wr
		}
	}
	for _, name := range workloadNames {
		wr := out.Workloads[name]
		wr.E2E = map[string]metricValue{}
		for _, m := range cfg.spec.EndToEnd {
			var xs []float64
			for _, r := range wr.E2ERuns {
				xs = append(xs, r.Metrics[m.Name].Value)
			}
			wr.E2E[m.Name] = metricValue{Value: median(xs), Unit: m.Unit}
		}
		if wr.PerLayer, err = child(name, true); err != nil {
			return err
		}
		out.Workloads[name] = wr
	}
	out.FailedFrac = float64(failed) / float64(attempted)

	doc, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("result-seed%d-%s.json", cfg.seed, time.Now().UTC().Format("20060102T150405Z")))
	if err := os.WriteFile(path, append(doc, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("== end-to-end, median of %d runs\n", e2eRuns)
	for _, name := range workloadNames {
		fmt.Println(name)
		printMetrics(os.Stdout, out.Workloads[name].E2E)
	}
	fmt.Printf("failed_frac %v\nresult file: %s\n", out.FailedFrac, path)
	if failed > 0 {
		return fmt.Errorf("%d of %d operations failed", failed, attempted)
	}
	return nil
}

// gitCommit is HEAD of the checkout, or "unknown" outside a git
// repository.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return string(bytes.TrimSpace(out))
}
