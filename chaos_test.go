package hashjoin

// TestChaosSoak is the whole-stack robustness acceptance test: a
// seeded, multi-site fault schedule (spill write errors with real
// errnos, at-rest page corruption, read delays, worker panics) storms a
// multi-tenant service Env while hundreds of mixed queries run
// concurrently. The contract under chaos:
//
//   - every query that SUCCEEDS returns output bit-identical to its
//     fault-free reference (NOutput and KeySum);
//   - every query that FAILS fails with one typed, classifiable error —
//     never a raw errno soup, a panic, or a wrong answer;
//   - the self-healing spill tier actually heals: directory failovers
//     and partition rebuilds are observed recovering queries that would
//     otherwise have died;
//   - nothing leaks: goroutines return to baseline, both spill parents
//     end empty, and the Env answers a clean post-chaos round.
//
// The schedule spec is printed on entry; a CI failure replays locally
// by arming the same line.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"syscall"
	"testing"

	"hashjoin/internal/fault"
	"hashjoin/internal/spill"
	"hashjoin/internal/workload"
)

// chaosTenant is one tenant's workload plus its fault-free reference.
type chaosTenant struct {
	name string
	w    Workload
	opts []PipelineOption
	ref  PipelineResult
}

// chaosTenants builds the mixed tenant population on one service Env:
// two in-memory native tenants, one simulated, and three spill-forcing
// skewed tenants spread across a two-directory spill spec.
func chaosTenants(t *testing.T, env *Env, spillSpec2 string) []*chaosTenant {
	t.Helper()
	ctx := context.Background()
	mk := func(name string, spec workload.Spec, opts ...PipelineOption) *chaosTenant {
		pair := workload.Generate(env.mem.A, spec)
		ct := &chaosTenant{
			name: name,
			w: Workload{
				Build:           &Relation{rel: pair.Build, env: env},
				Probe:           &Relation{rel: pair.Probe, env: env},
				ExpectedMatches: pair.ExpectedMatches,
				KeySum:          pair.KeySum,
			},
			opts: append([]PipelineOption{WithTenant(name), WithPipelineWorkers(2)}, opts...),
		}
		ref, err := env.RunPipelineContext(ctx, ct.w.Build, ct.w.Probe, ct.opts...)
		if err != nil {
			t.Fatalf("tenant %s fault-free reference: %v", name, err)
		}
		if ref.NOutput != pair.ExpectedMatches || ref.KeySum != pair.KeySum {
			t.Fatalf("tenant %s reference (%d, %d), want (%d, %d)",
				name, ref.NOutput, ref.KeySum, pair.ExpectedMatches, pair.KeySum)
		}
		ct.ref = ref
		return ct
	}
	spillOpts := func(fanout int) []PipelineOption {
		return []PipelineOption{
			WithEngine(EngineNative), WithPipelineFanout(fanout),
			WithPipelineMemBudget(4 << 10), WithPipelineSpillDir(spillSpec2),
			WithPipelineSpillWorkers(2),
		}
	}
	skew := func(seed int64) workload.Spec {
		return workload.Spec{
			NBuild: 2000, TupleSize: 20, MatchesPerBuild: 1,
			PctMatched: 100, Seed: seed, Skew: 2000,
		}
	}
	return []*chaosTenant{
		mk("mem-a", workload.Spec{NBuild: 500, TupleSize: 24, MatchesPerBuild: 2, PctMatched: 85, Seed: 41},
			WithEngine(EngineNative), WithPipelineFanout(4)),
		mk("mem-b", workload.Spec{NBuild: 800, TupleSize: 24, MatchesPerBuild: 1, Seed: 42},
			WithEngine(EngineNative), WithPipelineFanout(4), WithAggregation(4, 1024)),
		mk("sim", workload.Spec{NBuild: 400, TupleSize: 24, MatchesPerBuild: 1, Seed: 43},
			WithEngine(EngineSim)),
		mk("spill-a", skew(44), spillOpts(2)...),
		mk("spill-b", skew(45), spillOpts(4)...),
		mk("spill-c", skew(46), spillOpts(2)...),
	}
}

// chaosTyped returns a label when err belongs to the typed failure
// taxonomy chaos is allowed to produce, "" otherwise.
func chaosTyped(err error) string {
	for _, c := range []struct {
		name     string
		sentinel error
	}{
		{"injected", fault.ErrInjected},
		{"oom", ErrOutOfMemory},
		{"budget", ErrOverBudget},
		{"cancelled", ErrCancelled},
		{"corrupt", ErrCorruptSpill},
		{"unavailable", ErrSpillUnavailable},
		{"admission", ErrAdmission},
	} {
		if errors.Is(err, c.sentinel) {
			return c.name
		}
	}
	return ""
}

func TestChaosSoak(t *testing.T) {
	defer fault.Reset()
	t.Cleanup(spill.ResetHealth)
	base := fault.Goroutines()

	dirA, dirB := t.TempDir(), t.TempDir()
	spillSpec2 := dirA + "," + dirB
	env := NewEnv(WithSmallHierarchy(), WithCapacity(128<<20),
		WithService(ServiceConfig{MaxConcurrent: 4, Workers: 4}))
	tenants := chaosTenants(t, env, spillSpec2)
	ctx := context.Background()

	// Phase 1, deterministic: one guaranteed EIO on the first spill
	// write. The spill tenant must fail over to dirB, rebuild the
	// partition, and still answer exactly — self-healing observed
	// before the probabilistic storm muddies the water.
	fault.Enable(fault.SiteSpillWrite, fault.Fault{Kind: fault.KindError, Err: syscall.EIO, Count: 1})
	st := tenants[3]
	res, err := env.RunPipelineContext(ctx, st.w.Build, st.w.Probe, st.opts...)
	if err != nil {
		t.Fatalf("deterministic failover query: %v", err)
	}
	if res.NOutput != st.ref.NOutput || res.KeySum != st.ref.KeySum {
		t.Fatalf("deterministic failover diverged: (%d, %d) != (%d, %d)",
			res.NOutput, res.KeySum, st.ref.NOutput, st.ref.KeySum)
	}
	if res.SpillFailovers == 0 || res.SpillRebuilds == 0 {
		t.Fatalf("self-healing unobserved: %d failovers, %d rebuilds (want both > 0)",
			res.SpillFailovers, res.SpillRebuilds)
	}
	fault.Reset()
	spill.ResetHealth()

	// The storm: real dir-class errnos on spill writes (drives failover
	// and, when both dirs are down, the typed shed), at-rest page
	// corruption (drives quarantine + rebuild), read-side injected
	// errors and delays, and rare worker panics. Seeded: reruns fire
	// identically.
	const chaosSpec = "seed=1789;" +
		"site=spill.write,kind=error,errno=EIO,prob=0.03,count=6;" +
		"site=spill.verify,kind=error,prob=0.02;" +
		"site=spill.read,kind=error,prob=0.01;" +
		"site=spill.sync,kind=delay,delay=100us,prob=0.05;" +
		"site=native.worker,kind=panic,prob=0.002"
	sched, err := fault.ParseSchedule(chaosSpec)
	if err != nil {
		t.Fatalf("ParseSchedule: %v", err)
	}
	t.Logf("chaos schedule: %s", sched)

	rounds := 50 // ~300 queries
	if testing.Short() {
		rounds = 8
	}
	sched.Arm()

	var (
		mu        sync.Mutex
		successes int
		failures  = map[string]int{}
		failovers int64
		rebuilds  int64
	)
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for _, ct := range tenants {
			wg.Add(1)
			go func(ct *chaosTenant) {
				defer wg.Done()
				res, err := env.RunPipelineContext(ctx, ct.w.Build, ct.w.Probe, ct.opts...)
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					label := chaosTyped(err)
					if label == "" {
						t.Errorf("tenant %s: untyped chaos failure: %v", ct.name, err)
						return
					}
					failures[label]++
					return
				}
				successes++
				failovers += res.SpillFailovers
				rebuilds += res.SpillRebuilds
				if res.NOutput != ct.ref.NOutput || res.KeySum != ct.ref.KeySum {
					t.Errorf("tenant %s: chaos success diverged: (%d, %d) != reference (%d, %d)",
						ct.name, res.NOutput, res.KeySum, ct.ref.NOutput, ct.ref.KeySum)
				}
			}(ct)
		}
		wg.Wait()
		if t.Failed() {
			break
		}
	}
	sched.Disarm()
	fault.Reset()

	t.Logf("chaos soak: %d successes, failures by class: %v, %d failovers, %d rebuilds",
		successes, fmt.Sprint(failures), failovers, rebuilds)
	if successes == 0 {
		t.Fatal("chaos soak: no query survived the storm")
	}

	// Post-chaos round: the registry is reset, the Env must answer every
	// tenant cleanly and exactly.
	spill.ResetHealth()
	for _, ct := range tenants {
		res, err := env.RunPipelineContext(ctx, ct.w.Build, ct.w.Probe, ct.opts...)
		if err != nil {
			t.Fatalf("post-chaos tenant %s: %v", ct.name, err)
		}
		if res.NOutput != ct.ref.NOutput || res.KeySum != ct.ref.KeySum {
			t.Fatalf("post-chaos tenant %s diverged: (%d, %d) != (%d, %d)",
				ct.name, res.NOutput, res.KeySum, ct.ref.NOutput, ct.ref.KeySum)
		}
	}

	env.Close()
	fault.CheckGoroutines(t, base)
	fault.CheckNoFiles(t, dirA)
	fault.CheckNoFiles(t, dirB)
}
