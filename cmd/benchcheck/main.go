// Command benchcheck validates the repo's machine-readable benchmark
// trajectories — BENCH_native.json, BENCH_pipeline.json,
// BENCH_spill.json, BENCH_serve.json, BENCH_table.json,
// BENCH_hybrid.json, and BENCH_join.json — so CI fails fast when a
// benchmark stops emitting its document or emits one with missing
// keys, non-positive timings, or (for the swept trajectories) an
// empty or malformed sweep. It checks shape and sanity, not
// performance: timing values must be positive, not fast. Two
// exceptions carry semantic gates: the hybrid trajectory, where
// hybrid spill I/O exceeding the spill-everything volume is a
// deterministic policy regression, and the join trajectory, where the
// crossover constants the planner compiles in (internal/plan) must
// match the calibrated document — and the nested-loop strategy must
// actually win every swept point at or below the pinned crossover.
//
// Usage:
//
//	benchcheck [-dir .]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"hashjoin/internal/plan"
)

const prog = "benchcheck"

// numKeys lists the keys every trajectory document must carry with a
// positive numeric value; zero or missing is a broken benchmark run.
var numKeys = map[string][]string{
	"BENCH_native.json": {
		"n_build", "n_probe", "tuple_size", "gomaxprocs",
		"baseline_ms", "group_ms", "pipelined_ms",
		"group_speedup", "pipelined_speedup",
	},
	"BENCH_pipeline.json": {
		"n_build", "n_probe", "tuple_size", "gomaxprocs",
		"baseline_ms", "group_ms", "pipelined_ms",
		"group_speedup", "pipelined_speedup",
		"morsel_fanout", "morsel_group_ms",
		"stream_workers", "stream_serial_ms", "stream_ms",
	},
	"BENCH_spill.json": {
		"n_build", "n_probe", "tuple_size", "skew", "fanout",
		"mem_budget", "page_size", "gomaxprocs",
		"spilled_pairs", "bytes_written", "bytes_read",
	},
	"BENCH_serve.json": {
		"n_build", "n_probe", "tuple_size", "fanout",
		"max_in_flight", "gomaxprocs",
	},
	"BENCH_table.json": {
		"n_build", "n_probe", "tuple_size", "gomaxprocs",
		"serial_build_ms",
		"probe_rebuild_ms", "probe_cached_ms", "cached_speedup",
	},
	"BENCH_hybrid.json": {
		"n_build", "n_probe", "tuple_size", "zipf_keys", "fanout",
		"page_size", "gomaxprocs",
	},
	"BENCH_join.json": {
		"n_probe", "tuple_size", "gomaxprocs",
		"nested_loop_crossover_rows", "measured_nested_loop_crossover_rows",
		"partition_crossover_bytes",
	},
}

func main() {
	dir := flag.String("dir", ".", "directory holding the BENCH_*.json files")
	flag.Parse()

	failed := false
	for _, name := range []string{"BENCH_native.json", "BENCH_pipeline.json", "BENCH_spill.json", "BENCH_serve.json", "BENCH_table.json", "BENCH_hybrid.json", "BENCH_join.json"} {
		if errs := checkFile(filepath.Join(*dir, name), numKeys[name]); len(errs) > 0 {
			failed = true
			for _, e := range errs {
				fmt.Fprintf(os.Stderr, "%s: %s: %v\n", prog, name, e)
			}
		} else {
			fmt.Printf("%s: %s ok\n", prog, name)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// checkFile parses one trajectory document and returns every problem
// found, so a broken file reports all its defects in one CI run.
func checkFile(path string, keys []string) []error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return []error{err}
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		return []error{fmt.Errorf("not a JSON object: %v", err)}
	}
	var errs []error
	for _, k := range keys {
		if v, ok := num(doc[k]); !ok {
			errs = append(errs, fmt.Errorf("key %q missing or not a number", k))
		} else if v <= 0 {
			errs = append(errs, fmt.Errorf("key %q must be positive, got %v", k, v))
		}
	}
	if _, ok := doc["prefetch_asm"].(bool); !ok {
		errs = append(errs, fmt.Errorf("key %q missing or not a bool", "prefetch_asm"))
	}
	switch filepath.Base(path) {
	case "BENCH_spill.json":
		errs = append(errs, checkSpillPoints(doc)...)
	case "BENCH_serve.json":
		errs = append(errs, checkServePoints(doc)...)
	case "BENCH_table.json":
		errs = append(errs, checkTablePoints(doc)...)
	case "BENCH_hybrid.json":
		errs = append(errs, checkHybridPoints(doc)...)
	case "BENCH_join.json":
		errs = append(errs, checkJoinPoints(doc)...)
	}
	return errs
}

// checkJoinPoints validates the strategy-crossover calibration. Shape:
// both sweeps non-empty and strictly ascending with positive timings.
// Semantics: the pinned crossover constants must equal what the plan
// package compiles in (a re-calibration must move both together), the
// nested-loop strategy must win every swept point at or below the
// pinned crossover and lose the largest swept point, and a non-zero
// measured partition crossover must appear in the sweep as a point the
// partitioned join won.
func checkJoinPoints(doc map[string]any) []error {
	var errs []error
	crossRows, _ := num(doc["nested_loop_crossover_rows"])
	if int(crossRows) != plan.DefaultNestedLoopCrossover {
		errs = append(errs, fmt.Errorf("nested_loop_crossover_rows %v != plan.DefaultNestedLoopCrossover %d (re-pin the constant from the calibration run)",
			crossRows, plan.DefaultNestedLoopCrossover))
	}
	crossBytes, _ := num(doc["partition_crossover_bytes"])
	if int(crossBytes) != plan.DefaultPartitionCrossoverBytes {
		errs = append(errs, fmt.Errorf("partition_crossover_bytes %v != plan.DefaultPartitionCrossoverBytes %d (re-pin the constant from the calibration run)",
			crossBytes, plan.DefaultPartitionCrossoverBytes))
	}

	points, ok := doc["nested_loop_points"].([]any)
	if !ok || len(points) == 0 {
		errs = append(errs, fmt.Errorf("key %q missing or empty", "nested_loop_points"))
		return errs
	}
	prev := 0.0
	for i, p := range points {
		pt, ok := p.(map[string]any)
		if !ok {
			errs = append(errs, fmt.Errorf("nested_loop_points[%d]: not an object", i))
			continue
		}
		rows, ok := num(pt["build_rows"])
		if !ok || rows <= 0 {
			errs = append(errs, fmt.Errorf("nested_loop_points[%d]: build_rows missing or non-positive", i))
		} else if rows <= prev {
			errs = append(errs, fmt.Errorf("nested_loop_points[%d]: build_rows %v not ascending (prev %v)", i, rows, prev))
		} else {
			prev = rows
		}
		nl, nlOK := num(pt["nested_loop_ms"])
		st, stOK := num(pt["stream_ms"])
		if !nlOK || nl <= 0 {
			errs = append(errs, fmt.Errorf("nested_loop_points[%d]: nested_loop_ms missing or non-positive", i))
		}
		if !stOK || st <= 0 {
			errs = append(errs, fmt.Errorf("nested_loop_points[%d]: stream_ms missing or non-positive", i))
		}
		if nlOK && stOK && rows > 0 && rows <= crossRows && nl > st {
			errs = append(errs, fmt.Errorf("nested_loop_points[%d]: nested loop lost below the pinned crossover (%v rows: %.3f ms vs stream %.3f ms)", i, rows, nl, st))
		}
		if i == len(points)-1 && nlOK && stOK && nl <= st {
			errs = append(errs, fmt.Errorf("nested_loop_points[%d]: nested loop still wins at the sweep ceiling (%v rows) — the sweep no longer brackets the crossover", i, rows))
		}
	}

	ppoints, ok := doc["partition_points"].([]any)
	if !ok || len(ppoints) == 0 {
		errs = append(errs, fmt.Errorf("key %q missing or empty", "partition_points"))
		return errs
	}
	measured, _ := num(doc["measured_partition_crossover_bytes"])
	measuredSeen := measured == 0
	prev = 0.0
	for i, p := range ppoints {
		pt, ok := p.(map[string]any)
		if !ok {
			errs = append(errs, fmt.Errorf("partition_points[%d]: not an object", i))
			continue
		}
		bytes, ok := num(pt["build_bytes"])
		if !ok || bytes <= 0 {
			errs = append(errs, fmt.Errorf("partition_points[%d]: build_bytes missing or non-positive", i))
		} else if bytes <= prev {
			errs = append(errs, fmt.Errorf("partition_points[%d]: build_bytes %v not ascending (prev %v)", i, bytes, prev))
		} else {
			prev = bytes
		}
		st, stOK := num(pt["stream_ms"])
		pm, pmOK := num(pt["partitioned_ms"])
		if !stOK || st <= 0 {
			errs = append(errs, fmt.Errorf("partition_points[%d]: stream_ms missing or non-positive", i))
		}
		if !pmOK || pm <= 0 {
			errs = append(errs, fmt.Errorf("partition_points[%d]: partitioned_ms missing or non-positive", i))
		}
		if f, ok := num(pt["fanout"]); !ok || f < 2 {
			errs = append(errs, fmt.Errorf("partition_points[%d]: fanout missing or < 2", i))
		}
		if bytes == measured && stOK && pmOK && pm < st {
			measuredSeen = true
		}
	}
	if !measuredSeen {
		errs = append(errs, fmt.Errorf("measured_partition_crossover_bytes %v is not a swept point the partitioned join won", measured))
	}
	return errs
}

// checkHybridPoints validates the hybrid-vs-GRACE skew sweep: at least
// one point, strictly ascending Zipf parameters, positive budgets and
// timings, and — the real gate — hybrid spill I/O that never exceeds
// the spill-everything volume at the same point. A hybrid policy that
// writes more than the tier it replaces is a regression even when every
// test passes, and byte volumes are deterministic for the benchmark's
// fixed seeds, so the comparison is safe to enforce in CI.
func checkHybridPoints(doc map[string]any) []error {
	points, ok := doc["points"].([]any)
	if !ok || len(points) == 0 {
		return []error{fmt.Errorf("key %q missing or empty", "points")}
	}
	var errs []error
	prev := 0.0
	for i, p := range points {
		pt, ok := p.(map[string]any)
		if !ok {
			errs = append(errs, fmt.Errorf("points[%d]: not an object", i))
			continue
		}
		z, ok := num(pt["zipf"])
		if !ok || z <= 0 {
			errs = append(errs, fmt.Errorf("points[%d]: zipf missing or non-positive", i))
		} else if z <= prev {
			errs = append(errs, fmt.Errorf("points[%d]: zipf %v not ascending (prev %v)", i, z, prev))
		} else {
			prev = z
		}
		for _, k := range []string{"mem_budget", "spill_io_bytes", "spill_elapsed_ms", "hybrid_elapsed_ms", "resident_pairs", "spilled_pairs"} {
			if v, ok := num(pt[k]); !ok || v <= 0 {
				errs = append(errs, fmt.Errorf("points[%d]: %s missing or non-positive", i, k))
			}
		}
		hio, ok := num(pt["hybrid_io_bytes"])
		if !ok || hio < 0 {
			errs = append(errs, fmt.Errorf("points[%d]: hybrid_io_bytes missing or negative", i))
		} else if sio, ok := num(pt["spill_io_bytes"]); ok && hio > sio {
			errs = append(errs, fmt.Errorf("points[%d]: hybrid_io_bytes %v exceeds spill_io_bytes %v", i, hio, sio))
		}
	}
	return errs
}

// checkTablePoints validates the concurrent-build worker sweep: at
// least one point, strictly ascending worker counts, and positive
// build time and speedup at every count. On a single-core host the
// concurrent build legitimately ties or loses to serial; with two or
// more cores, two or more workers must not lose to it.
func checkTablePoints(doc map[string]any) []error {
	procs, _ := num(doc["gomaxprocs"])
	points, ok := doc["build_points"].([]any)
	if !ok || len(points) == 0 {
		return []error{fmt.Errorf("key %q missing or empty", "build_points")}
	}
	var errs []error
	prev := 0.0
	for i, p := range points {
		pt, ok := p.(map[string]any)
		if !ok {
			errs = append(errs, fmt.Errorf("build_points[%d]: not an object", i))
			continue
		}
		w, ok := num(pt["workers"])
		if !ok || w <= 0 {
			errs = append(errs, fmt.Errorf("build_points[%d]: workers missing or non-positive", i))
		} else if w <= prev {
			errs = append(errs, fmt.Errorf("build_points[%d]: workers %v not ascending (prev %v)", i, w, prev))
		} else {
			prev = w
		}
		for _, k := range []string{"build_ms", "speedup"} {
			if v, ok := num(pt[k]); !ok || v <= 0 {
				errs = append(errs, fmt.Errorf("build_points[%d]: %s missing or non-positive", i, k))
			}
		}
		if sp, _ := num(pt["speedup"]); procs >= 2 && w >= 2 && sp < 1 {
			errs = append(errs, fmt.Errorf("build_points[%d]: speedup %v below 1.0 at %v workers on %v cores", i, sp, w, procs))
		}
	}
	return errs
}

// checkServePoints validates the concurrency sweep: at least one point,
// strictly ascending concurrency levels, and positive wall clock,
// throughput, and per-query timings at every level.
func checkServePoints(doc map[string]any) []error {
	points, ok := doc["points"].([]any)
	if !ok || len(points) == 0 {
		return []error{fmt.Errorf("key %q missing or empty", "points")}
	}
	var errs []error
	prev := 0.0
	for i, p := range points {
		pt, ok := p.(map[string]any)
		if !ok {
			errs = append(errs, fmt.Errorf("points[%d]: not an object", i))
			continue
		}
		c, ok := num(pt["concurrency"])
		if !ok || c <= 0 {
			errs = append(errs, fmt.Errorf("points[%d]: concurrency missing or non-positive", i))
		} else if c <= prev {
			errs = append(errs, fmt.Errorf("points[%d]: concurrency %v not ascending (prev %v)", i, c, prev))
		} else {
			prev = c
		}
		for _, k := range []string{"wave_ms", "queries_per_second", "query_ms"} {
			if v, ok := num(pt[k]); !ok || v <= 0 {
				errs = append(errs, fmt.Errorf("points[%d]: %s missing or non-positive", i, k))
			}
		}
	}
	return errs
}

// checkSpillPoints validates the spill trajectory's worker sweep: at
// least one point, positive timings, and strictly ascending worker
// counts (the sweep is meaningless if a count repeats or regresses).
func checkSpillPoints(doc map[string]any) []error {
	points, ok := doc["points"].([]any)
	if !ok || len(points) == 0 {
		return []error{fmt.Errorf("key %q missing or empty", "points")}
	}
	var errs []error
	prev := 0.0
	for i, p := range points {
		pt, ok := p.(map[string]any)
		if !ok {
			errs = append(errs, fmt.Errorf("points[%d]: not an object", i))
			continue
		}
		w, ok := num(pt["workers"])
		if !ok || w <= 0 {
			errs = append(errs, fmt.Errorf("points[%d]: workers missing or non-positive", i))
		} else if w <= prev {
			errs = append(errs, fmt.Errorf("points[%d]: workers %v not ascending (prev %v)", i, w, prev))
		} else {
			prev = w
		}
		if ms, ok := num(pt["elapsed_ms"]); !ok || ms <= 0 {
			errs = append(errs, fmt.Errorf("points[%d]: elapsed_ms missing or non-positive", i))
		}
		// Stall times are legitimately zero when overlap hides all I/O;
		// only their presence and sign are checked.
		for _, k := range []string{"write_stall_ms", "read_stall_ms"} {
			if ms, ok := num(pt[k]); !ok || ms < 0 {
				errs = append(errs, fmt.Errorf("points[%d]: %s missing or negative", i, k))
			}
		}
	}
	return errs
}

// num unwraps encoding/json's number representation.
func num(v any) (float64, bool) {
	f, ok := v.(float64)
	return f, ok
}
