package main

import (
	"context"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"hashjoin"
	"hashjoin/internal/cli"
	"hashjoin/internal/core"
	"hashjoin/internal/engine"
	"hashjoin/internal/workload"
)

// ranStrategy names the strategy a run executed, read from its report
// rather than from its decision: a partitioned join, the budget
// governor's one-pair split included, counts each non-empty pair it
// joined as resident, or re-partitions (or spills) it; a streaming join
// does none of these.
func ranStrategy(r engine.Report) string {
	if r.ResidentPartitions+r.SpilledPartitions+r.JoinRecursionDepth > 0 {
		return "partitioned"
	}
	return "stream"
}

// wireFanouts returns the fan-out an hjserve reply says its join ran
// and the one its plan="…" names (0 without explain=1).
func wireFanouts(line string) (ran, reported int) {
	head, plan, _ := strings.Cut(line, ` plan="`)
	for _, f := range []struct {
		s string
		n *int
	}{{head, &ran}, {plan, &reported}} {
		if m := fanoutKey.FindStringSubmatch(f.s); m != nil {
			*f.n, _ = strconv.Atoi(m[1])
		}
	}
	return ran, reported
}

var fanoutKey = regexp.MustCompile(`\bfanout=(\d+)`)

// TestOneStrategyRule runs each row of the strategy rule (plan.Resolve)
// through the three front ends — Env.RunPipeline, cli.Pipeline.Run and
// an hjserve query — unbudgeted and under a budget the build overflows,
// with EXPLAIN off and on. Every surface must run the strategy and
// fan-out the row names (a named 3 runs as 4), report that decision,
// and refuse a conflicting request as a usage error; EXPLAIN changes
// neither the strategy nor the fan-out. The wire reply carries no
// recursion depth, so the strategy an hjserve query ran is the one it
// reports, tied to the library's run of the same case by an equal
// morsel count. The library and the CLI report their decision on every
// run and have no EXPLAIN switch; the library's EXPLAIN-on run adds
// WithStrategy to an auto row, beside which a named fan-out must hold.
// The server runs without a build cache, so no surface has a prebuilt
// side (TestServeCacheFollowsTheRule covers that row).
func TestOneStrategyRule(t *testing.T) {
	const (
		tuple, seed = 40, 3
		budget      = 65536
		auto        = hashjoin.StrategyAuto
		stream      = hashjoin.StrategyStream
		part        = hashjoin.StrategyPartitioned
	)
	type want struct {
		strategy string // "" = a usage error
		fanout   int
	}
	// The big build (20 000 rows, 1.6 MB) overflows the planner's
	// crossover: it partitions at fan-out 4, or at 32 under the budget.
	// The small one (2 000 rows, 160 KB) streams, or partitions at 4
	// under the budget.
	pairs := map[string][2]int{"big": {20000, 40000}, "small": {2000, 4000}}
	rows := []struct {
		pair     string
		strategy hashjoin.Strategy
		fanout   int // named; 0 names none
		free     want
		budgeted want
	}{
		{"big", auto, 0, want{"partitioned", 4}, want{"partitioned", 32}},
		{"big", auto, 1, want{"stream", 1}, want{"partitioned", 1}},
		{"big", auto, 8, want{"partitioned", 8}, want{"partitioned", 8}},
		{"big", stream, 0, want{"stream", 1}, want{"partitioned", 1}},
		{"big", stream, 1, want{"stream", 1}, want{"partitioned", 1}},
		{"big", stream, 8, want{}, want{}},
		{"big", part, 1, want{"partitioned", 4}, want{"partitioned", 32}},
		{"big", part, 8, want{"partitioned", 8}, want{"partitioned", 8}},
		{"small", auto, 0, want{"stream", 1}, want{"partitioned", 4}},
		{"small", auto, 1, want{"stream", 1}, want{"partitioned", 1}},
		{"small", auto, 8, want{"partitioned", 8}, want{"partitioned", 8}},
		{"small", part, 1, want{"partitioned", 2}, want{"partitioned", 4}},
		{"small", auto, 3, want{"partitioned", 4}, want{"partitioned", 4}},
	}

	ctx := context.Background()
	env := hashjoin.NewEnv(hashjoin.WithSmallHierarchy(), hashjoin.WithCapacity(64<<20))
	s := startServer(t, serverOptions{})
	c := dial(t, s)
	libPairs := map[string]*hashjoin.Workload{}
	cliPairs := map[string]*cli.Pipeline{}
	for name, n := range pairs {
		w, err := env.GenerateWorkload(ctx, n[0], n[1], tuple, seed)
		if err != nil {
			t.Fatalf("GenerateWorkload %s: %v", name, err)
		}
		libPairs[name] = w
		p := &cli.Pipeline{
			Engine: engine.Native,
			Spec:   workload.Spec{NBuild: n[0], NProbe: n[1], TupleSize: tuple, Seed: seed},
			Scheme: core.SchemeGroup,
		}
		p.Materialize()
		cliPairs[name] = p
		if status, m := kv(t, c.roundTrip(t,
			fmt.Sprintf("pair name=%s build=%d probe=%d tuple=%d seed=%d", name, n[0], n[1], tuple, seed))); status != "ok" {
			t.Fatalf("pair %s: %v %v", name, status, m)
		}
	}
	spillDir := t.TempDir()

	// outcome is what one surface did with one case: the strategy its
	// report shows it ran, the fan-out and morsels it ran, the strategy
	// and fan-out its decision reported ("" and 0 when it reported
	// none), and its error.
	type outcome struct {
		ran             string
		fanout, morsels int
		reported        string
		reportedFanout  int
		err             error
		usage           bool
	}
	for _, row := range rows {
		for _, b := range []int{0, budget} {
			w := row.free
			if b > 0 {
				w = row.budgeted
			}
			for _, explain := range []bool{false, true} {
				name := fmt.Sprintf("%s strategy=%v fanout=%d budget=%d explain=%v", row.pair, row.strategy, row.fanout, b, explain)
				got := map[string]outcome{}

				opts := []hashjoin.PipelineOption{
					hashjoin.WithEngine(hashjoin.EngineNative),
					hashjoin.WithPipelineWorkers(2),
					hashjoin.WithPipelineFanout(row.fanout),
					hashjoin.WithPipelineSpillDir(spillDir),
				}
				if row.strategy != auto || explain {
					opts = append(opts, hashjoin.WithStrategy(row.strategy))
				}
				if b > 0 {
					opts = append(opts, hashjoin.WithPipelineMemBudget(b))
				}
				lw := libPairs[row.pair]
				res, err := env.RunPipeline(lw.Build, lw.Probe, opts...)
				o := outcome{ran: ranStrategy(res.Report), fanout: res.JoinFanout, morsels: res.MorselsExecuted,
					err: err, usage: cli.ExitCodeFor(err) == cli.ExitUsage}
				if res.Plan != nil {
					o.reported, o.reportedFanout = res.Plan.Strategy.String(), res.Plan.Fanout
				}
				got["library"] = o

				p := *cliPairs[row.pair]
				p.Strategy, p.Fanout, p.MemBudget = row.strategy, row.fanout, b
				p.Workers, p.SpillDir = 2, spillDir
				cres, err := p.Run()
				o = outcome{ran: ranStrategy(cres.Report), fanout: cres.JoinFanout, morsels: cres.MorselsExecuted,
					err: err, usage: cli.ExitCodeFor(err) == cli.ExitUsage}
				if cres.Plan != nil {
					o.reported, o.reportedFanout = cres.Plan.Strategy.String(), cres.Plan.Fanout
				} else if err == nil {
					t.Errorf("%s via cli: the run reported no plan", name)
				}
				got["cli"] = o

				q := fmt.Sprintf("query pair=%s workers=2 strategy=%v", row.pair, row.strategy)
				if row.fanout > 0 {
					q += fmt.Sprintf(" fanout=%d", row.fanout)
				}
				if b > 0 {
					q += fmt.Sprintf(" budget=%d", b)
				}
				if explain {
					q += " explain=1"
				}
				line := c.roundTrip(t, q)
				status, m := kv(t, line)
				o = outcome{ran: m["strategy"], reported: m["strategy"]}
				o.fanout, o.reportedFanout = wireFanouts(line)
				o.morsels, _ = strconv.Atoi(m["morsels"])
				if status != "ok" {
					o.err = fmt.Errorf("%s %v", status, m)
					o.usage = m["code"] == strconv.Itoa(cli.ExitUsage)
				}
				got["hjserve"] = o

				for surface, o := range got {
					switch {
					case w.strategy == "" && !o.usage:
						t.Errorf("%s via %s: ran %s at fanout %d (err %v), want a usage error",
							name, surface, o.ran, o.fanout, o.err)
					case w.strategy == "":
					case o.err != nil:
						t.Errorf("%s via %s: %v", name, surface, o.err)
					case o.ran != w.strategy || o.fanout != w.fanout || o.reported != "" && o.reported != o.ran ||
						o.reportedFanout != 0 && o.reportedFanout != o.fanout:
						t.Errorf("%s via %s: ran %s at fanout %d, reported %q at fanout %d; want %s at fanout %d",
							name, surface, o.ran, o.fanout, o.reported, o.reportedFanout, w.strategy, w.fanout)
					case o.morsels != got["library"].morsels:
						t.Errorf("%s via %s: %d morsels, the library ran %d", name, surface, o.morsels, got["library"].morsels)
					}
				}
			}
		}
	}
}
