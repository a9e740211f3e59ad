package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// TestSmoke runs both passes of every workload at smoke scale and
// checks the output contract: every metric BENCHMARK.json names is
// emitted exactly once with a finite value, names are well formed, and
// nothing failed. Timings are not asserted on.
func TestSmoke(t *testing.T) {
	spec, err := loadBenchmarkSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(spec.Workloads), len(workloadNames))
	}
	_, goErr := exec.LookPath("go")
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	outDir := t.TempDir()

	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("BENCHMARK.json workload %d is %q, the harness has %q", i, w.Name, workloadNames[i])
			continue
		}
		t.Run(w.Name, func(t *testing.T) {
			if len(w.Why) == 0 || len(w.Why) > 200 {
				t.Errorf("why must be 1..200 characters, is %d", len(w.Why))
			}
			cfg := runConfig{workload: w.Name, seed: 7, seconds: 300 * time.Millisecond, scale: smokeScale, spec: spec, outDir: outDir}
			if def, _ := workloadByName(w.Name); def.prepare != nil && goErr != nil {
				t.Skip("no go toolchain on PATH to build hjserve with")
			}
			for _, pass := range []struct {
				traced bool
				want   []specMetric
			}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
				line, err := runOne(cfg, pass.traced)
				if err != nil {
					t.Fatalf("traced=%v: %v", pass.traced, err)
				}
				if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
					t.Errorf("traced=%v: correct=%v attempted=%d failed=%d", pass.traced, line.Correct, line.Attempted, line.Failed)
				}
				if len(line.Metrics) != len(pass.want) {
					t.Errorf("traced=%v: %d metrics emitted, BENCHMARK.json names %d", pass.traced, len(line.Metrics), len(pass.want))
				}
				for _, m := range pass.want {
					got, ok := line.Metrics[m.Name]
					switch {
					case !nameRE.MatchString(m.Name):
						t.Errorf("metric name %q is malformed", m.Name)
					case !ok:
						t.Errorf("metric %s not emitted", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("metric %s is not finite", m.Name)
					case !pass.traced && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, must be positive", m.Name, got.Value)
					}
				}
			}
			if _, err := os.Stat(filepath.Join(outDir, "trace-"+w.Name+".json")); err != nil {
				t.Errorf("trace file: %v", err)
			}
		})
	}
}

// TestSpillSkewSpills pins what the workload exists for: at either
// scale its duplicate-run keys must reach the spill tier.
func TestSpillSkewSpills(t *testing.T) {
	w, err := setupInproc(smokeScale.inproc["spill_skew"], smokeScale.sim, 3, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	_, res, err := w.query(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.SpilledPartitions == 0 || res.SpillBytesWritten == 0 {
		t.Fatalf("nothing spilled: %+v", res)
	}
}

// TestReference checks the map-join oracle on a case small enough to
// do by hand.
func TestReference(t *testing.T) {
	in := input{tuple: 8, build: []uint32{10, 20, 20, 30}, probe: []uint32{20, 10, 20, 99}}
	got := reference(in, true)
	// 20 matches twice per probe row (two probe rows), 10 once.
	if got.rows != 5 || got.keysum != 20*4+10 {
		t.Fatalf("rows, keysum = %d, %d; want 5, 90", got.rows, got.keysum)
	}
	v20 := uint64(buildValue(1) + buildValue(2))
	want := []group{{10, 1, uint64(buildValue(0))}, {20, 4, 2 * v20}}
	if len(got.groups) != 2 || got.groups[0] != want[0] || got.groups[1] != want[1] {
		t.Fatalf("groups = %+v, want %+v", got.groups, want)
	}

	wire := wireReference(in.build, in.probe)
	for jt, want := range map[string]wireExpect{
		"":            {5, 90},
		"semi":        {3, 50},
		"anti":        {1, 99},
		"left-outer":  {6, 90},
		"right-outer": {6, 120},
	} {
		if wire[jt] != want {
			t.Errorf("join type %q: %+v, want %+v", jt, wire[jt], want)
		}
	}
}

// TestGenInputSeeded: the same seed gives the same input, another seed
// another, and the hit count is exact.
func TestGenInputSeeded(t *testing.T) {
	s := smokeScale.inproc["inmem_build"]
	a, b, c := genInput(s, 5), genInput(s, 5), genInput(s, 6)
	same := func(x, y input) bool {
		for i := range x.build {
			if x.build[i] != y.build[i] {
				return false
			}
		}
		return true
	}
	if !same(a, b) || same(a, c) {
		t.Fatal("inputs must depend on the seed and on nothing else")
	}
	if got := reference(a, false).rows; got != s.nHit {
		t.Fatalf("%d output rows, want nHit = %d", got, s.nHit)
	}
}

// TestCompare drives -compare over synthetic result files: equal files
// pass; a regression past its bound, a differing exact metric, a
// metric that is zero or absent on either side, and files measured
// under different frozen constants all fail.
func TestCompare(t *testing.T) {
	spec, err := loadBenchmarkSpec()
	if err != nil {
		t.Fatal(err)
	}
	base := resultFile{Seed: 1, Scale: "full", Seconds: 10, Workloads: map[string]workloadResult{}}
	for _, w := range spec.Workloads {
		wr := workloadResult{E2E: map[string]metricValue{}}
		wr.PerLayer.Metrics = map[string]metricValue{}
		for _, m := range spec.EndToEnd {
			wr.E2E[m.Name] = metricValue{Value: 100, Unit: m.Unit}
		}
		for _, m := range spec.PerLayer {
			wr.PerLayer.Metrics[m.Name] = metricValue{Value: 2, Unit: m.Unit}
		}
		base.Workloads[w.Name] = wr
	}
	dir := t.TempDir()
	write := func(name string, edit func(*resultFile)) string {
		var r resultFile
		doc, _ := json.Marshal(base)
		if err := json.Unmarshal(doc, &r); err != nil {
			t.Fatal(err)
		}
		edit(&r)
		doc, _ = json.Marshal(r)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, doc, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", func(*resultFile) {})
	slower := write("slower.json", func(r *resultFile) {
		r.Workloads["part_agg"].E2E["norm_query_ms_p50"] = metricValue{Value: 200, Unit: "ms"}
	})
	faster := write("faster.json", func(r *resultFile) {
		r.Workloads["part_agg"].E2E["norm_query_ms_p50"] = metricValue{Value: 50, Unit: "ms"}
	})
	inexact := write("inexact.json", func(r *resultFile) {
		r.Workloads["inmem_probe"].PerLayer.Metrics["core.sim_group_speedup"] = metricValue{Value: 2.5, Unit: "ratio"}
	})
	zero := write("zero.json", func(r *resultFile) {
		r.Workloads["part_agg"].E2E["peak_rss_mib"] = metricValue{Value: 0, Unit: "MiB"}
	})
	missing := write("missing.json", func(r *resultFile) {
		delete(r.Workloads["serve_mix"].E2E, "setup_s")
	})
	otherConst := write("other-const.json", func(r *resultFile) { r.Constants.E2ERuns = 1 })
	if err := compareFiles(a, a); err != nil {
		t.Errorf("equal files: %v", err)
	}
	if err := compareFiles(a, faster); err != nil {
		t.Errorf("an improvement must pass: %v", err)
	}
	if err := compareFiles(a, slower); err == nil {
		t.Error("a 2x slower p50 must fail")
	}
	if err := compareFiles(a, inexact); err == nil {
		t.Error("a differing exact metric must fail")
	}
	if compareFiles(a, zero) == nil || compareFiles(zero, a) == nil {
		t.Error("a zero end-to-end metric on either side must fail")
	}
	if compareFiles(a, missing) == nil || compareFiles(missing, a) == nil {
		t.Error("a missing end-to-end metric on either side must fail")
	}
	if err := compareFiles(a, otherConst); err == nil {
		t.Error("different frozen constants must fail")
	}
}
