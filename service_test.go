package hashjoin

// Multi-tenant service contract, under -race: N concurrent
// RunPipelineContext calls on one resident Env produce exactly the
// results serialized execution produces; one tenant's cancellation or
// injected fault never poisons a neighbor; over-budget queries are
// shed with a typed *AdmissionError instead of OOMing anyone; the Env
// stays reusable afterwards; and no goroutines leak.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"hashjoin/internal/fault"
	"hashjoin/internal/sched"
)

// serviceEnv builds a service Env holding nTenants generated workloads
// of mixed sizes, plus the serialized reference result for each.
func serviceEnv(t *testing.T, nTenants int, sc ServiceConfig) (*Env, []*Workload, []PipelineResult) {
	t.Helper()
	env := NewEnv(WithSmallHierarchy(), WithCapacity(128<<20), WithService(sc))
	t.Cleanup(env.Close)
	ctx := context.Background()
	ws := make([]*Workload, nTenants)
	refs := make([]PipelineResult, nTenants)
	for i := range ws {
		n := 300 + 180*i // mixed sizes: morsel counts differ per tenant
		w, err := env.GenerateWorkload(ctx, n, 2*n, 40, int64(100+i))
		if err != nil {
			t.Fatalf("GenerateWorkload %d: %v", i, err)
		}
		ws[i] = w
		ref, err := env.RunPipelineContext(ctx, w.Build, w.Probe, tenantOpts(i, len(ws))...)
		if err != nil {
			t.Fatalf("serialized run %d: %v", i, err)
		}
		if ref.NOutput != w.ExpectedMatches || ref.KeySum != w.KeySum {
			t.Fatalf("serialized run %d: NOutput/KeySum = %d/%d, want %d/%d",
				i, ref.NOutput, ref.KeySum, w.ExpectedMatches, w.KeySum)
		}
		refs[i] = ref
	}
	return env, ws, refs
}

// tenantOpts is the per-tenant query shape: mostly native morsel joins
// with aggregation, one streaming native, and one simulated tenant so
// exclusive admission interleaves with windowed admission.
func tenantOpts(i, n int) []PipelineOption {
	opts := []PipelineOption{
		WithTenant(fmt.Sprintf("tenant-%d", i)),
		WithTenantWeight(1 + i%3),
		WithPipelineWorkers(2),
		WithAggregation(4, 4096),
	}
	switch {
	case i == n-1:
		opts = append(opts, WithEngine(EngineSim))
	case i == n-2:
		opts = append(opts, WithEngine(EngineNative), WithPipelineFanout(1))
	default:
		opts = append(opts, WithEngine(EngineNative), WithPipelineFanout(4))
	}
	return opts
}

// TestServiceConcurrentParity is the acceptance criterion: 8 concurrent
// queries on one Env, all completing with results identical to
// serialized execution, with live Stats reads throughout, no leaked
// goroutines, and a reusable Env afterwards.
func TestServiceConcurrentParity(t *testing.T) {
	base := fault.Goroutines()
	env, ws, refs := serviceEnv(t, 8, ServiceConfig{MaxConcurrent: 4, Workers: 4})
	ctx := context.Background()

	// A reader hammers Stats and ServiceStats while queries run —
	// torn-counter reads would trip -race.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = env.Stats()
				_ = env.ServiceStats()
			}
		}
	}()

	var wg sync.WaitGroup
	results := make([]PipelineResult, len(ws))
	errs := make([]error, len(ws))
	for round := 0; round < 2; round++ { // round 2 proves the Env is reusable
		for i := range ws {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i], errs[i] = env.RunPipelineContext(ctx, ws[i].Build, ws[i].Probe, tenantOpts(i, len(ws))...)
			}(i)
		}
		wg.Wait()
		for i := range ws {
			if errs[i] != nil {
				t.Fatalf("round %d tenant %d: %v", round, i, errs[i])
			}
			r, ref := results[i], refs[i]
			if r.NOutput != ref.NOutput || r.KeySum != ref.KeySum || !reflect.DeepEqual(r.Groups, ref.Groups) {
				t.Fatalf("round %d tenant %d: concurrent result differs from serialized", round, i)
			}
		}
	}
	close(stop)
	readers.Wait()

	// Accounting: windowed tenants report their admitted budget and
	// morsel counts; aggregate counters balance.
	for i := 0; i < len(ws)-1; i++ {
		if results[i].AdmittedBytes == 0 {
			t.Errorf("tenant %d: AdmittedBytes = 0, want a window", i)
		}
	}
	if results[0].MorselsExecuted == 0 {
		t.Error("morsel tenant reports 0 MorselsExecuted")
	}
	s := env.ServiceStats()
	wantRuns := uint64(3 * len(ws)) // serialized refs + 2 concurrent rounds
	if s.Admitted < wantRuns || s.Completed < wantRuns {
		t.Errorf("Admitted/Completed = %d/%d, want >= %d", s.Admitted, s.Completed, wantRuns)
	}
	if s.InFlight != 0 || s.Queued != 0 || s.ReservedBytes != 0 {
		t.Errorf("idle gauges nonzero: %+v", s)
	}
	if s.MorselsExecuted == 0 {
		t.Error("pool executed 0 morsels")
	}
	if s.Reclaims == 0 {
		t.Error("no quiescent window reclamation happened")
	}

	env.Close()
	fault.CheckGoroutines(t, base)
}

// TestServiceNeighborIsolation runs a full concurrent wave in which one
// tenant is cancelled mid-flight and one morsel claim is faulted; every
// unaffected tenant must still produce exact results, and the Env must
// serve a clean wave afterwards.
func TestServiceNeighborIsolation(t *testing.T) {
	base := fault.Goroutines()
	env, ws, refs := serviceEnv(t, 6, ServiceConfig{MaxConcurrent: 6, Workers: 4})

	// Exactly one injected failure at the morsel claim site: whichever
	// native tenant's worker claims first eats it.
	fault.Enable(fault.SiteMorselWorker, fault.Fault{Count: 1})
	defer fault.Reset()

	const cancelled = 1 // a fanout-4 native tenant
	cctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	results := make([]PipelineResult, len(ws))
	errs := make([]error, len(ws))
	for i := range ws {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			if i == cancelled {
				ctx = cctx
			}
			results[i], errs[i] = env.RunPipelineContext(ctx, ws[i].Build, ws[i].Probe, tenantOpts(i, len(ws))...)
		}(i)
	}
	cancel() // mid-flight: admission or a batch/claim boundary notices
	wg.Wait()

	faulted, failedCancelled := -1, false
	var inj *fault.InjectedError
	for i := range ws {
		err := errs[i]
		switch {
		case err == nil:
			r, ref := results[i], refs[i]
			if r.NOutput != ref.NOutput || r.KeySum != ref.KeySum {
				t.Errorf("tenant %d: poisoned result %d/%d, want %d/%d",
					i, r.NOutput, r.KeySum, ref.NOutput, ref.KeySum)
			}
		case errors.As(err, &inj):
			if faulted != -1 {
				t.Errorf("fault hit tenants %d and %d; Count was 1", faulted, i)
			}
			faulted = i
		case errors.Is(err, ErrCancelled) || errors.Is(err, context.Canceled):
			if i != cancelled {
				t.Errorf("tenant %d cancelled; only %d had a cancelled context", i, cancelled)
			}
			failedCancelled = true
		default:
			t.Errorf("tenant %d: unexpected error class: %v", i, err)
		}
	}
	if faulted == cancelled && failedCancelled {
		t.Error("fault and cancellation landed on the same tenant")
	}
	if faulted == -1 {
		t.Error("injected fault never surfaced")
	}

	// The service is intact: a clean wave succeeds exactly.
	var wg2 sync.WaitGroup
	for i := range ws {
		wg2.Add(1)
		go func(i int) {
			defer wg2.Done()
			r, err := env.RunPipelineContext(context.Background(), ws[i].Build, ws[i].Probe, tenantOpts(i, len(ws))...)
			if err != nil {
				t.Errorf("post-fault tenant %d: %v", i, err)
				return
			}
			if r.NOutput != refs[i].NOutput || r.KeySum != refs[i].KeySum {
				t.Errorf("post-fault tenant %d: result drifted", i)
			}
		}(i)
	}
	wg2.Wait()
	env.Close()
	fault.CheckGoroutines(t, base)
}

// TestServiceShedding covers the three shed classes: a footprint the
// arena can never grant (TooLarge, a memory-class error, no OOM panic),
// a full bounded queue (QueueFull), and a queue wait past the deadline
// (Timeout, matching context.DeadlineExceeded).
func TestServiceShedding(t *testing.T) {
	env := NewEnv(WithSmallHierarchy(), WithCapacity(64<<20), WithArenaBudget(8<<20),
		WithService(ServiceConfig{MaxConcurrent: 1, QueueDepth: 1, QueueTimeout: 20 * time.Millisecond}))
	defer env.Close()
	ctx := context.Background()
	w, err := env.GenerateWorkload(ctx, 500, 1000, 40, 7)
	if err != nil {
		t.Fatalf("GenerateWorkload: %v", err)
	}
	opts := func(extra ...PipelineOption) []PipelineOption {
		return append([]PipelineOption{WithEngine(EngineNative), WithPipelineFanout(4), WithPipelineWorkers(2)}, extra...)
	}

	// TooLarge: planned scratch above the arena budget can never fit.
	_, err = env.RunPipelineContext(ctx, w.Build, w.Probe, opts(WithPlannedScratch(32<<20))...)
	var ae *AdmissionError
	if !errors.As(err, &ae) || ae.Reason != AdmissionTooLarge {
		t.Fatalf("oversized plan: err = %v, want TooLarge *AdmissionError", err)
	}
	if !errors.Is(err, ErrAdmission) {
		t.Fatal("shed does not match ErrAdmission")
	}

	// Saturate the single slot, then the single queue seat, then shed.
	block := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		env.Durable(ctx, func() error { close(block); <-release; return nil })
	}()
	<-block

	queued := make(chan error, 1)
	go func() {
		_, err := env.RunPipelineContext(ctx, w.Build, w.Probe, opts()...)
		queued <- err
	}()
	waitForQueue(t, env, 1)

	_, err = env.RunPipelineContext(ctx, w.Build, w.Probe, opts()...)
	if !errors.As(err, &ae) || ae.Reason != AdmissionQueueFull {
		t.Fatalf("over-queue run: err = %v, want QueueFull", err)
	}

	// The queued run times out (20ms QueueTimeout) while the slot stays
	// blocked, and the rejection carries the deadline class.
	err = <-queued
	if !errors.As(err, &ae) || ae.Reason != AdmissionTimeout || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued run: err = %v, want Timeout matching DeadlineExceeded", err)
	}

	close(release)
	wg.Wait()

	// Shed counters saw one of each.
	s := env.ServiceStats()
	if s.ShedTooLarge != 1 || s.ShedQueueFull != 1 || s.ShedTimeout != 1 || s.Shed() != 3 {
		t.Fatalf("shed counters = %+v", s)
	}

	// The slot is free again: the same query runs clean.
	r, err := env.RunPipelineContext(ctx, w.Build, w.Probe, opts()...)
	if err != nil {
		t.Fatalf("post-shed run: %v", err)
	}
	if r.NOutput != w.ExpectedMatches || r.KeySum != w.KeySum {
		t.Fatalf("post-shed result = %d/%d, want %d/%d", r.NOutput, r.KeySum, w.ExpectedMatches, w.KeySum)
	}
}

// TestServiceCloseDrains proves shutdown semantics at the Env level:
// Close sheds later admissions with Draining and is idempotent, and a
// plain Env treats Close and Durable as no-op passthroughs.
func TestServiceCloseDrains(t *testing.T) {
	env := NewEnv(WithSmallHierarchy(), WithCapacity(64<<20), WithService(ServiceConfig{}))
	ctx := context.Background()
	w, err := env.GenerateWorkload(ctx, 200, 400, 40, 3)
	if err != nil {
		t.Fatalf("GenerateWorkload: %v", err)
	}
	env.Close()
	env.Close() // idempotent

	_, err = env.RunPipelineContext(ctx, w.Build, w.Probe, WithEngine(EngineNative))
	var ae *AdmissionError
	if !errors.As(err, &ae) || ae.Reason != AdmissionDraining {
		t.Fatalf("post-Close run: err = %v, want Draining", err)
	}
	if err := env.Durable(ctx, func() error { return nil }); !errors.As(err, &ae) {
		t.Fatalf("post-Close Durable: err = %v, want *AdmissionError", err)
	}

	plain := NewEnv(WithSmallHierarchy(), WithCapacity(16<<20))
	plain.Close() // no-op
	if err := plain.Durable(ctx, func() error { return nil }); err != nil {
		t.Fatalf("plain Durable: %v", err)
	}
	if _, err := plain.Join(mustRel(t, plain, 5), mustRel(t, plain, 5)); err != nil {
		t.Fatalf("plain Env after Close: %v", err)
	}
}

func mustRel(t *testing.T, env *Env, n int) *Relation {
	t.Helper()
	r := env.NewRelation(20)
	for i := 0; i < n; i++ {
		r.Append(uint32(i*2+2), nil)
	}
	return r
}

func waitForQueue(t *testing.T, env *Env, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for env.ServiceStats().Queued < n {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServicePlannedScratchBoundsRun pins plannedScratch against what a
// run really allocates: admission carves a window of exactly the planned
// figure, so a run whose scratch high-water mark exceeds it fails with
// an out-of-memory error. The relations are sized so every planned
// figure clears the 256 KB admission floor — the floor would otherwise
// hide an underestimate — and the figures must order the way the
// emitted row widths do: an aggregate's join emits key and value only,
// a semi join the probe tuple, an inner join build||probe.
func TestServicePlannedScratchBoundsRun(t *testing.T) {
	env := NewEnv(WithSmallHierarchy(), WithCapacity(192<<20), WithService(ServiceConfig{MaxConcurrent: 1, Workers: 2}))
	t.Cleanup(env.Close)
	ctx := context.Background()
	wide, err := env.GenerateWorkload(ctx, 400, 1600, 1500, 7)
	if err != nil {
		t.Fatal(err)
	}
	many, err := env.GenerateWorkload(ctx, 12000, 24000, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	const floor = 256 << 10
	for _, fanout := range []int{1, 4} {
		admitted := map[string]uint64{}
		for _, tc := range []struct {
			name string
			w    *Workload
			opts []PipelineOption
		}{
			{"inner", wide, nil},
			{"semi", wide, []PipelineOption{WithJoinType(LeftSemi)}},
			{"agg", many, []PipelineOption{WithAggregation(4, 12000)}},
			{"wide agg", wide, []PipelineOption{WithAggregation(1496, 400)}},
		} {
			opts := append([]PipelineOption{WithEngine(EngineNative), WithPipelineFanout(fanout), WithPipelineWorkers(2)}, tc.opts...)
			res, err := env.RunPipelineContext(ctx, tc.w.Build, tc.w.Probe, opts...)
			if err != nil {
				t.Fatalf("fanout=%d %s: run inside its planned window: %v", fanout, tc.name, err)
			}
			if res.NOutput != tc.w.ExpectedMatches || res.KeySum != tc.w.KeySum {
				t.Errorf("fanout=%d %s: NOutput/KeySum = %d/%d, want %d/%d",
					fanout, tc.name, res.NOutput, res.KeySum, tc.w.ExpectedMatches, tc.w.KeySum)
			}
			admitted[tc.name] = res.AdmittedBytes
		}
		for _, name := range []string{"inner", "semi", "agg"} {
			if admitted[name] <= floor {
				t.Errorf("fanout=%d %s: planned %d bytes sits on the admission floor; the run proves nothing", fanout, name, admitted[name])
			}
		}
		if !(admitted["wide agg"] == floor && admitted["semi"] < admitted["inner"]) {
			t.Errorf("fanout=%d: planned scratch does not follow the emitted row width: wide agg %d (want the %d floor), semi %d, inner %d",
				fanout, admitted["wide agg"], floor, admitted["semi"], admitted["inner"])
		}
	}

	// The spill tier's page pool is planned in the pages it will run
	// with. Eight duplicate-key runs no radix pass can split, each over
	// the budget, all spill; with 63 KiB pages the pool is eleven pages
	// of 63 KiB, which an estimate made in default 32 KiB pages (fifteen
	// of them) does not cover.
	const runs, perRun, tuple = 8, 1500, 100
	var build, probe *Relation
	err = env.Durable(ctx, func() error {
		build, probe = env.NewRelation(tuple), env.NewRelation(tuple)
		for k := uint32(1); k <= runs; k++ {
			for i := 0; i < perRun; i++ {
				build.Append(k, nil)
			}
			probe.Append(k, nil)
			probe.Append(k, nil)
		}
		for i := uint32(0); i < 2000; i++ {
			probe.Append(1000+i, nil)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, page := range []int{0, 63 << 10} {
		res, err := env.RunPipelineContext(ctx, build, probe, WithEngine(EngineNative),
			WithPipelineFanout(8), WithPipelineWorkers(2), WithPipelineSpillDir(t.TempDir()),
			WithPipelineMemBudget(128<<10), WithPipelineSpillPageSize(page))
		if err != nil {
			t.Fatalf("spill page size %d: run inside its planned window: %v", page, err)
		}
		if res.SpilledPartitions != runs || res.NOutput != 2*runs*perRun || res.KeySum != 2*perRun*(runs*(runs+1)/2) {
			t.Errorf("spill page size %d: spilled/NOutput/KeySum = %d/%d/%d, want %d/%d/%d", page,
				res.SpilledPartitions, res.NOutput, res.KeySum, runs, 2*runs*perRun, 2*perRun*(runs*(runs+1)/2))
		}
	}
}

// TestServiceBuildFilterFitsWindow runs a filtered build in service
// mode: the filter's output is materialized into a relation inside the
// query's admission window, so the planned scratch must cover that
// relation's pages, on both native strategies.
func TestServiceBuildFilterFitsWindow(t *testing.T) {
	env := NewEnv(WithSmallHierarchy(), WithCapacity(128<<20), WithService(ServiceConfig{MaxConcurrent: 2, Workers: 2}))
	t.Cleanup(env.Close)
	ctx := context.Background()
	w, err := env.GenerateWorkload(ctx, 20000, 40000, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, fanout := range []int{1, 4} {
		res, err := env.RunPipelineContext(ctx, w.Build, w.Probe, WithEngine(EngineNative),
			WithPipelineFanout(fanout), WithBuildFilter(0, ^uint32(0)))
		if err != nil {
			t.Fatalf("fanout=%d: filtered build inside its planned window: %v", fanout, err)
		}
		if res.NOutput != w.ExpectedMatches || res.KeySum != w.KeySum {
			t.Errorf("fanout=%d: NOutput/KeySum = %d/%d, want %d/%d",
				fanout, res.NOutput, res.KeySum, w.ExpectedMatches, w.KeySum)
		}
	}
}

// TestServiceBudgetedJoinDemotes: a budgeted service-mode join runs the
// hybrid policy with no option asking for it. Its pairs fit the budget
// and the grant's advisory budget at admission, so the first claim joins
// resident; then a queued neighbour that cannot carve a window halves the
// advisory mid-join, and the pairs claimed after that are demoted to the
// victim path — with the same result. A 20 ms delay before each pair
// claim, on one worker, holds the join open while the test applies the
// pressure.
func TestServiceBudgetedJoinDemotes(t *testing.T) {
	defer fault.Reset()
	env := NewEnv(WithSmallHierarchy(), WithCapacity(64<<20), WithArenaBudget(8<<20),
		WithService(ServiceConfig{MaxConcurrent: 4, Workers: 1}))
	defer env.Close()
	ctx := context.Background()
	w, err := env.GenerateWorkload(ctx, 8000, 4000, 100, 5)
	if err != nil {
		t.Fatalf("GenerateWorkload: %v", err)
	}
	// One pair's footprint is about 2000 rows of 148 B, ~290 KiB; the
	// window holds the 12 000 partition entries (~190 KiB) with room to
	// spare, and half of it is below a pair.
	const planned = 400 << 10
	held, err := env.svc.Admit(ctx, sched.Request{Tenant: "held", Planned: 1 << 20})
	if err != nil {
		t.Fatalf("Admit held: %v", err)
	}
	defer held.Release(nil) // a no-op once released below
	fault.Enable(fault.SiteMorselWorker, fault.Fault{Kind: fault.KindDelay, Delay: 20 * time.Millisecond})
	type outcome struct {
		res PipelineResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := env.RunPipelineContext(ctx, w.Build, w.Probe, WithEngine(EngineNative),
			WithPipelineFanout(4), WithPipelineWorkers(1), WithPipelineMemBudget(1<<20),
			WithPlannedScratch(planned))
		done <- outcome{res, err}
	}()
	// The second claim has started its delay: the first pair sampled the
	// full advisory budget and is joining.
	deadline := time.Now().Add(5 * time.Second)
	for fault.Hits(fault.SiteMorselWorker) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("the join never claimed its second pair")
		}
		time.Sleep(time.Millisecond)
	}
	// A waiter larger than what is left queues; releasing the held grant
	// seats nobody (the join's window still pins the arena), so the
	// controller halves the join's advisory budget. The waiter is seated
	// once the join releases its window, and lets go at once.
	seated := make(chan struct{})
	go func() {
		defer close(seated)
		g, err := env.svc.Admit(ctx, sched.Request{Tenant: "waiter", Planned: 6 << 20})
		if err != nil {
			t.Errorf("Admit waiter: %v", err)
			return
		}
		g.Release(nil)
	}()
	waitForQueue(t, env, 1)
	held.Release(nil)
	if env.ServiceStats().Pressure == 0 {
		t.Fatal("releasing the held grant applied no pressure")
	}

	out := <-done
	<-seated
	if out.err != nil {
		t.Fatalf("budgeted join: %v", out.err)
	}
	res := out.res
	if res.NOutput != w.ExpectedMatches || res.KeySum != w.KeySum {
		t.Fatalf("NOutput/KeySum = %d/%d, want %d/%d", res.NOutput, res.KeySum, w.ExpectedMatches, w.KeySum)
	}
	if res.ResidentPartitions == 0 || res.DemotedPartitions == 0 || res.BytesDemoted == 0 {
		t.Fatalf("resident=%d demoted=%d (%d B): want pairs on both sides of the shrink",
			res.ResidentPartitions, res.DemotedPartitions, res.BytesDemoted)
	}
	t.Logf("resident=%d demoted=%d (%d B)", res.ResidentPartitions, res.DemotedPartitions, res.BytesDemoted)
}
