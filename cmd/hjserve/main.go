// Command hjserve runs the hash-join laboratory as a long-lived
// multi-tenant service: one resident Env in service mode, shared by
// every connection, with admission control arbitrating the arena and a
// shared worker pool scheduling morsels fairly across tenants.
//
// It speaks a line-oriented TCP protocol — one command per line, one
// response line per command:
//
//	pair name=t1 build=10000 probe=20000 tuple=40 seed=1
//	query pair=t1 fanout=8 agg=1 timeout=2s
//	stats
//	ping
//	quit
//
// A query's join resolves its strategy and fan-out by the one rule
// (plan.Resolve): fanout=N above 1 partitions at N rounded up to a
// power of two, fanout=1 streams, and a query naming no fanout= leaves
// the choice to the cost-based planner, or to its strategy= (auto,
// stream or partitioned; strategy=partitioned names fanout 4 unless
// fanout= is given). A
// native query with no budget= that names no partitioned run probes the
// pair's cached build side when the build-side cache is on
// (-build-cache > 0), which pins it to the streaming strategy: the
// first such query builds the pair's hash table once, later ones —
// every join type, with or without agg=1 — stream their probes through
// it, and the reply carries cache=hit or cache=miss. Every reply names
// the executed strategy=; explain=1 adds the decision's reasoning and
// never changes the run.
//
// Successful commands answer "ok k=v ...". Failures answer
//
//	err status=<word> code=<n> msg="..."
//
// where status/code carry the same taxonomy the batch tools exit with:
// ok=0, failure=1, usage=2, memory=3, cancelled=4, internal=5 (a
// recovered handler panic), protocol=6 (malformed input, e.g. a line
// over 64 KiB). A query shed for size reports memory; one shed by queue
// timeout reports cancelled; a full queue, a draining server, or a
// connection refused at -max-conns reports failure (retryable).
//
// An HTTP side door serves GET /healthz ("ok", "degraded" with
// per-spill-dir detail when a spill directory is unhealthy, 503 while
// draining) and GET /stats (JSON: the stats line's counters, plus the
// per-directory spill health). SIGINT/SIGTERM drains
// gracefully: queued queries are shed, in-flight queries finish, then
// the process exits 0.
//
// The HJ_CHAOS environment variable, when set, arms a seeded fault
// schedule (see internal/fault.ParseSchedule) for the whole process —
// the hook the chaos smoke tests drive a real binary with.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hashjoin"
	"hashjoin/internal/cli"
	"hashjoin/internal/fault"
)

const prog = "hjserve"

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:7411", "protocol listen address (port 0 picks a free port)")
		httpAddr   = flag.String("http", "127.0.0.1:7412", "HTTP health/stats listen address (port 0 picks a free port)")
		capacity   = flag.Uint64("capacity", 256<<20, "arena capacity in bytes")
		budget     = flag.Uint64("budget", 0, "arena soft budget in bytes (0 = capacity only)")
		maxConc    = flag.Int("max-concurrent", 0, "queries in flight at once (0 = 8)")
		queueDepth = flag.Int("queue-depth", 0, "admission queue bound (0 = 64)")
		queueWait  = flag.Duration("queue-timeout", 0, "shed queries queued longer than this (0 = no server-side bound)")
		workers    = flag.Int("workers", 0, "shared morsel pool size (0 = all CPUs)")
		queryCap   = flag.Duration("query-timeout", time.Minute, "cap on per-query timeout= requests (0 = uncapped)")
		buildCache = flag.Int64("build-cache", 64<<20, "build-side cache byte budget for native queries without budget= that name no partitioned run (no fanout= above 1, no strategy=partitioned); 0 disables")
		spillDir   = flag.String("spill-dir", "", "comma-separated spill parent directories, tried in order as earlier ones fail (\"\" = OS temp)")
		maxConns   = flag.Int("max-conns", 0, "protocol connection cap; excess connections get a typed shed line (0 = unlimited)")
		idleTime   = flag.Duration("idle-timeout", 0, "close protocol connections idle longer than this (0 = never)")
		writeTime  = flag.Duration("write-timeout", 10*time.Second, "per-response write deadline (0 = none)")
		reviveEach = flag.Duration("spill-revive", 30*time.Second, "how often to probe unhealthy spill dirs for revival (0 = only on demand)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		cli.Fatalf(prog, "unexpected arguments: %v", flag.Args())
	}
	if *capacity == 0 {
		cli.Fatalf(prog, "-capacity must be positive")
	}
	if chaos, err := fault.ScheduleFromEnv(os.Getenv("HJ_CHAOS")); err != nil {
		cli.Fatalf(prog, "HJ_CHAOS: %v", err)
	} else if chaos != nil {
		fmt.Printf("%s: chaos schedule armed: %s\n", prog, chaos)
	}

	s := newServer(serverOptions{
		addr:     *addr,
		httpAddr: *httpAddr,
		capacity: *capacity,
		budget:   *budget,
		service: hashjoin.ServiceConfig{
			MaxConcurrent: *maxConc,
			QueueDepth:    *queueDepth,
			QueueTimeout:  *queueWait,
			Workers:       *workers,
		},
		queryTimeout: *queryCap,
		buildCache:   *buildCache,
		spillDir:     *spillDir,
		maxConns:     *maxConns,
		idleTimeout:  *idleTime,
		writeTimeout: *writeTime,
		reviveEvery:  *reviveEach,
	})
	if err := s.listen(); err != nil {
		cli.Dief(prog, "%v", err)
	}
	fmt.Printf("%s: listening addr=%s http=%s\n", prog, s.ln.Addr(), s.hln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Printf("%s: draining\n", prog)
		s.shutdown()
	}()

	s.serve()    // returns when the listener closes
	s.shutdown() // idempotent: waits for the drain either way
	fmt.Printf("%s: drained\n", prog)
}
