package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
)

func loadResult(path string) (resultFile, error) {
	var r resultFile
	doc, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(doc, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareFiles prints, per workload and end-to-end metric, both values
// (each the median of its file's untraced runs), how much worse B is
// than A as a share of A, and the bound from BENCHMARK.json. It returns
// an error — a non-zero exit — when the files were not measured under
// the same frozen constants, when B is worse than a bound allows, when
// an end-to-end metric is missing or not positive in either file (no
// ratio can be taken against it), when either file has failed
// operations, or when an exact metric (a count or a simulated cycle
// figure) differs between two files of the same seed.
func compareFiles(pathA, pathB string) error {
	spec, err := loadBenchmarkSpec()
	if err != nil {
		return err
	}
	a, err := loadResult(pathA)
	if err != nil {
		return err
	}
	b, err := loadResult(pathB)
	if err != nil {
		return err
	}
	if a.Scale != b.Scale || a.Seconds != b.Seconds || !reflect.DeepEqual(a.Constants, b.Constants) {
		return fmt.Errorf("not comparable: scale, seconds or frozen constants differ\n  A: %s, %v s, %+v\n  B: %s, %v s, %+v",
			a.Scale, a.Seconds, a.Constants, b.Scale, b.Seconds, b.Constants)
	}
	if a.FailedFrac != 0 || b.FailedFrac != 0 {
		return fmt.Errorf("failed operations: failed_frac is %v in A and %v in B", a.FailedFrac, b.FailedFrac)
	}
	if a.Host != b.Host {
		fmt.Printf("warning: host fingerprints differ\n  A: %+v\n  B: %+v\n", a.Host, b.Host)
	}

	var problems []string
	fmt.Printf("%-12s %-16s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "worse by", "bound")
	for _, w := range spec.Workloads {
		wa, okA := a.Workloads[w.Name]
		wb, okB := b.Workloads[w.Name]
		if !okA || !okB {
			problems = append(problems, fmt.Sprintf("%s: missing from a result file", w.Name))
			continue
		}
		for _, m := range spec.EndToEnd {
			va, vb := wa.E2E[m.Name].Value, wb.E2E[m.Name].Value
			if !(va > 0 && vb > 0) {
				problems = append(problems, fmt.Sprintf("%s %s: missing or not positive (A %v, B %v)", w.Name, m.Name, va, vb))
				continue
			}
			worse := (vb - va) / va
			if m.Better == "higher" {
				worse = (va - vb) / va
			}
			mark := ""
			if worse > m.Bound {
				mark = "  REGRESSION"
				problems = append(problems, fmt.Sprintf("%s %s: B worse by %.1f%%, bound %.0f%%", w.Name, m.Name, 100*worse, 100*m.Bound))
			}
			fmt.Printf("%-12s %-16s %14.4f %14.4f %8.1f%% %6.0f%%%s\n", w.Name, m.Name, va, vb, 100*worse, 100*m.Bound, mark)
		}
		if a.Seed != b.Seed {
			continue
		}
		for _, name := range exactLayer {
			ma, okA := wa.PerLayer.Metrics[name]
			mb, okB := wb.PerLayer.Metrics[name]
			if !okA || !okB || ma.Value != mb.Value {
				problems = append(problems, fmt.Sprintf("%s %s: exact metric missing or differs (%v vs %v)", w.Name, name, ma.Value, mb.Value))
			}
		}
	}
	if a.Seed != b.Seed {
		fmt.Printf("seeds differ (%d vs %d): exact metrics not compared\n", a.Seed, b.Seed)
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Println("FAIL:", p)
		}
		return fmt.Errorf("%d comparison(s) failed", len(problems))
	}
	fmt.Println("ok: B is within every bound of A")
	return nil
}
