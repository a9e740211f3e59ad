package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hashjoin"
	"hashjoin/internal/cli"
	"hashjoin/internal/fault"
	"hashjoin/internal/spill"
)

// server is the long-lived join service: one resident Env in service
// mode, a line-oriented TCP protocol for loading workload pairs and
// running queries, and an HTTP side door for health and stats.
type server struct {
	env   *hashjoin.Env
	opts  serverOptions
	cache *buildCache

	mu    sync.Mutex
	pairs map[string]*hashjoin.Workload
	open  map[net.Conn]struct{} // live protocol connections, for drain

	ln   net.Listener
	hln  net.Listener
	hsrv *http.Server

	conns      sync.WaitGroup
	draining   atomic.Bool
	reviveStop chan struct{}

	// Server-level counters, alongside the Env's admission counters.
	queriesOK  atomic.Uint64
	queriesErr atomic.Uint64
	panics     atomic.Uint64 // requests that panicked and were recovered
	connShed   atomic.Uint64 // connections refused at the concurrency cap

	// Spill-recovery totals accumulated across completed queries.
	spillFailovers atomic.Int64
	spillRebuilds  atomic.Int64
}

type serverOptions struct {
	addr, httpAddr string
	capacity       uint64
	budget         uint64
	service        hashjoin.ServiceConfig
	queryTimeout   time.Duration // cap on per-query timeout= requests
	buildCache     int64         // build-side cache byte budget (0 disables)
	spillDir       string        // comma-separated spill parents for queries ("" = OS temp)
	maxConns       int           // protocol connection cap (0 = unlimited)
	idleTimeout    time.Duration // per-command read deadline (0 = none)
	writeTimeout   time.Duration // per-response write deadline (0 = none)
	reviveEvery    time.Duration // spill-dir revival probe period (0 = off)
}

func newServer(opts serverOptions) *server {
	envOpts := []hashjoin.Option{
		hashjoin.WithSmallHierarchy(),
		hashjoin.WithCapacity(opts.capacity),
		hashjoin.WithService(opts.service),
	}
	if opts.budget > 0 {
		envOpts = append(envOpts, hashjoin.WithArenaBudget(opts.budget))
	}
	s := &server{
		env:        hashjoin.NewEnv(envOpts...),
		opts:       opts,
		cache:      newBuildCache(opts.buildCache),
		pairs:      make(map[string]*hashjoin.Workload),
		open:       make(map[net.Conn]struct{}),
		reviveStop: make(chan struct{}),
	}
	// Decay the build cache in step with the scheduler's quiescent
	// window reclamations: a service gone idle sheds cold tables too.
	s.env.OnReclaim(s.cache.trim)
	return s
}

// listen binds both listeners and reports the resolved addresses (the
// flags accept port 0 so tests and scripts can bind anywhere free).
func (s *server) listen() error {
	ln, err := net.Listen("tcp", s.opts.addr)
	if err != nil {
		return fmt.Errorf("protocol listener: %w", err)
	}
	hln, err := net.Listen("tcp", s.opts.httpAddr)
	if err != nil {
		ln.Close()
		return fmt.Errorf("http listener: %w", err)
	}
	s.ln, s.hln = ln, hln

	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/stats", s.handleStats)
	s.hsrv = &http.Server{Handler: mux}
	return nil
}

// serve accepts protocol connections until shutdown; it returns after
// the listener closes. The HTTP server runs on its own goroutine.
func (s *server) serve() {
	go s.hsrv.Serve(s.hln)
	if s.opts.reviveEvery > 0 {
		go s.reviver()
	}
	for id := 1; ; id++ {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed: shutting down
		}
		s.mu.Lock()
		if s.opts.maxConns > 0 && len(s.open) >= s.opts.maxConns {
			s.mu.Unlock()
			s.connShed.Add(1)
			// Shed with a typed line, not a silent RST: the client learns
			// this is load, not a protocol mistake, and can retry.
			s.setWriteDeadline(conn)
			fmt.Fprintln(conn, errLine(cli.ExitFailure,
				fmt.Errorf("connection capacity %d reached; retry later", s.opts.maxConns)))
			conn.Close()
			continue
		}
		s.open[conn] = struct{}{}
		s.mu.Unlock()
		if s.draining.Load() {
			// Raced a drain that already swept the open set: expire the
			// read deadline ourselves so the handler cannot park in Scan.
			conn.SetReadDeadline(time.Now())
		}
		s.conns.Add(1)
		go func(id int, conn net.Conn) {
			defer s.conns.Done()
			s.handleConn(id, conn)
			s.mu.Lock()
			delete(s.open, conn)
			s.mu.Unlock()
		}(id, conn)
	}
}

// shutdown drains the server: stop accepting, shed queued queries, let
// in-flight queries and open connections finish, then release the
// Env's worker pool. Safe to call more than once.
func (s *server) shutdown() {
	if s.draining.Swap(true) {
		s.env.Close() // second caller still waits for the drain
		return
	}
	s.ln.Close()
	s.env.Close() // sheds the admission queue, waits out in-flight queries
	// Wake handlers parked in Scan on idle connections: an expired read
	// deadline fails the next read but leaves writes alone, so a handler
	// mid-command still delivers its response before exiting.
	s.mu.Lock()
	for conn := range s.open {
		conn.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	s.conns.Wait()
	close(s.reviveStop)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.hsrv.Shutdown(ctx)
}

// reviver periodically probes unhealthy spill directories so recovered
// disks rejoin the rotation between queries, not just when a query
// happens to need them.
func (s *server) reviver() {
	t := time.NewTicker(s.opts.reviveEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			spill.Revive(s.opts.spillDir)
		case <-s.reviveStop:
			return
		}
	}
}

// setWriteDeadline arms the per-response write deadline, if configured:
// a client that stops reading cannot park a handler in a blocked write.
func (s *server) setWriteDeadline(conn net.Conn) {
	if s.opts.writeTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(s.opts.writeTimeout))
	}
}

func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	// Degraded: still serving (in-memory joins and failover keep queries
	// completing) but some spill directory is down, so operators should
	// look before the last one goes. 200 on purpose — load balancers must
	// not pull a node that is still answering queries.
	health := spill.Health(s.opts.spillDir)
	degraded := false
	for _, h := range health {
		if !h.Healthy {
			degraded = true
			break
		}
	}
	if !degraded {
		fmt.Fprintln(w, "ok")
		return
	}
	fmt.Fprintln(w, "degraded")
	for _, h := range health {
		dir := h.Dir
		if dir == "" {
			dir = os.TempDir()
		}
		if h.Healthy {
			fmt.Fprintf(w, "spill-dir %s: healthy\n", dir)
		} else {
			fmt.Fprintf(w, "spill-dir %s: unhealthy since=%s cause=%q\n",
				dir, h.Since.UTC().Format(time.RFC3339), h.Cause)
		}
	}
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	health := spill.Health(s.opts.spillDir)
	out := map[string]any{}
	for _, st := range s.stats(health) {
		out[st.key] = st.val
	}
	dirHealth := make([]map[string]any, 0, len(health))
	for _, h := range health {
		dir := h.Dir
		if dir == "" {
			dir = os.TempDir()
		}
		e := map[string]any{"dir": dir, "healthy": h.Healthy}
		if !h.Healthy {
			e["cause"] = h.Cause
			e["since"] = h.Since.UTC().Format(time.RFC3339)
		}
		dirHealth = append(dirHealth, e)
	}
	out["spill_dirs"] = dirHealth
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// stat is one scalar server counter: a key=value field of the stats
// line and a member of the /stats JSON object.
type stat struct {
	key string
	val any
}

// stats is the one list of scalar counters both stats doors render, in
// the stats line's order.
func (s *server) stats(health []spill.DirHealth) []stat {
	sc := s.env.ServiceStats()
	hits, misses, evicts, resident := s.cache.counters()
	unhealthyDirs := 0
	for _, h := range health {
		if !h.Healthy {
			unhealthyDirs++
		}
	}
	return []stat{
		{"queries_ok", s.queriesOK.Load()},
		{"queries_err", s.queriesErr.Load()},
		{"admitted", sc.Admitted},
		{"completed", sc.Completed},
		{"failed", sc.Failed},
		{"waited", sc.Waited},
		{"shed", sc.Shed()},
		{"shed_too_large", sc.ShedTooLarge},
		{"shed_queue_full", sc.ShedQueueFull},
		{"shed_timeout", sc.ShedTimeout},
		{"shed_draining", sc.ShedDraining},
		{"queue_wait_ns", sc.QueueWaitTotal.Nanoseconds()},
		{"in_flight", sc.InFlight},
		{"queued", sc.Queued},
		{"reserved_bytes", sc.ReservedBytes},
		{"morsels_executed", sc.MorselsExecuted},
		{"reclaims", sc.Reclaims},
		{"build_cache_hits", hits},
		{"build_cache_misses", misses},
		{"build_cache_evictions", evicts},
		{"build_cache_resident_bytes", resident},
		{"panics", s.panics.Load()},
		{"conn_shed", s.connShed.Load()},
		{"spill_failovers", s.spillFailovers.Load()},
		{"spill_rebuilds", s.spillRebuilds.Load()},
		{"spill_dirs_unhealthy", unhealthyDirs},
	}
}

// maxLineLen bounds one protocol command line. A longer line is a
// protocol error: it is drained to its newline and answered with a
// typed err line, and the connection keeps serving — a hostile or buggy
// client cannot silently kill its own session mid-script.
const maxLineLen = 64 << 10

var errLineTooLong = fmt.Errorf("line exceeds %d bytes", maxLineLen)

// readLine reads one newline-terminated command line of at most
// maxLineLen bytes. Over-long lines are consumed entirely (so the next
// read starts at the next command) and reported as errLineTooLong.
func readLine(br *bufio.Reader) (string, error) {
	var line []byte
	over := false
	for {
		frag, err := br.ReadSlice('\n')
		if !over && len(line)+len(frag) > maxLineLen {
			over, line = true, nil
		}
		if !over {
			line = append(line, frag...)
		}
		switch err {
		case nil:
			if over {
				return "", errLineTooLong
			}
			return string(line), nil
		case bufio.ErrBufferFull:
			continue
		default:
			return "", err
		}
	}
}

// handleConn speaks the line protocol: one command per line, one
// response line per command ("ok k=v ..." or `err status=<word>
// code=<n> msg=<quoted>`), until quit, EOF, idle timeout, or server
// drain.
func (s *server) handleConn(id int, conn net.Conn) {
	defer conn.Close()
	tenant := fmt.Sprintf("conn-%d", id)
	br := bufio.NewReader(conn)
	out := bufio.NewWriter(conn)
	respond := func(resp string) bool {
		s.setWriteDeadline(conn)
		fmt.Fprintln(out, resp)
		return out.Flush() == nil
	}
	for {
		if s.opts.idleTimeout > 0 && !s.draining.Load() {
			conn.SetReadDeadline(time.Now().Add(s.opts.idleTimeout))
		}
		raw, err := readLine(br)
		if err == errLineTooLong {
			if !respond(errLine(cli.ExitProtocol, errLineTooLong)) {
				return
			}
			continue
		}
		if err != nil {
			// Idle expiry on a live server gets a goodbye line; a drain's
			// expired deadline (and EOF, and network failures) just closes.
			if errors.Is(err, os.ErrDeadlineExceeded) && !s.draining.Load() {
				respond(errLine(cli.ExitCancelled,
					fmt.Errorf("idle for %v; closing connection", s.opts.idleTimeout)))
			}
			return
		}
		line := strings.TrimSpace(raw)
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		resp, quit := s.dispatch(tenant, fields[0], fields[1:])
		if quit {
			respond("ok bye=1")
			return
		}
		if !respond(resp) {
			return
		}
	}
}

// dispatch routes one command, containing any panic the handler raises
// into a typed err status=internal response: the request dies, the
// connection and the server do not.
func (s *server) dispatch(tenant, cmd string, args []string) (resp string, quit bool) {
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			resp = errLine(cli.ExitInternal, fmt.Errorf("panic serving %s: %v", cmd, r))
		}
	}()
	if err := fault.Hit(fault.SiteServeRequest); err != nil {
		return errLine(cli.ExitInternal, err), false
	}
	switch cmd {
	case "ping":
		return "ok", false
	case "pair":
		return s.cmdPair(args), false
	case "query":
		return s.cmdQuery(tenant, args), false
	case "stats":
		return s.cmdStats(), false
	case "quit":
		return "", true
	default:
		return errLine(cli.ExitUsage, fmt.Errorf("unknown command %q (have: ping, pair, query, stats, quit)", cmd)), false
	}
}

// kvArgs parses k=v tokens; unknown keys fail so typos cannot silently
// select defaults.
func kvArgs(args, allowed []string) (map[string]string, error) {
	kv := make(map[string]string, len(args))
	for _, a := range args {
		k, v, ok := strings.Cut(a, "=")
		if !ok || v == "" {
			return nil, fmt.Errorf("malformed argument %q (want key=value)", a)
		}
		found := false
		for _, want := range allowed {
			if k == want {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown key %q (accepted: %s)", k, strings.Join(allowed, ", "))
		}
		if _, dup := kv[k]; dup {
			return nil, fmt.Errorf("duplicate key %q", k)
		}
		kv[k] = v
	}
	return kv, nil
}

func kvInt(kv map[string]string, key string, def int) (int, error) {
	v, ok := kv[key]
	if !ok {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad %s=%q (want a non-negative integer)", key, v)
	}
	return n, nil
}

// cmdPair generates a named workload pair: a durable, exclusive load
// that is safe while queries are in flight.
func (s *server) cmdPair(args []string) string {
	kv, err := kvArgs(args, []string{"name", "build", "probe", "tuple", "seed"})
	if err != nil {
		return errLine(cli.ExitUsage, err)
	}
	name := kv["name"]
	if name == "" {
		return errLine(cli.ExitUsage, errors.New("pair needs name="))
	}
	nBuild, err := kvInt(kv, "build", 0)
	if err != nil || nBuild == 0 {
		return errLine(cli.ExitUsage, errors.New("pair needs build=<tuples>"))
	}
	nProbe, err := kvInt(kv, "probe", 0)
	if err != nil {
		return errLine(cli.ExitUsage, err)
	}
	tuple, err := kvInt(kv, "tuple", 40)
	if err != nil || tuple < 8 {
		return errLine(cli.ExitUsage, errors.New("pair needs tuple=<bytes> >= 8"))
	}
	seed, err := kvInt(kv, "seed", 1)
	if err != nil {
		return errLine(cli.ExitUsage, err)
	}

	w, err := s.env.GenerateWorkload(context.Background(), nBuild, nProbe, tuple, int64(seed))
	if err != nil {
		return errLine(cli.ExitCodeFor(err), err)
	}
	s.mu.Lock()
	s.pairs[name] = w
	s.mu.Unlock()
	s.cache.invalidate(name) // a reused name must not serve the old build
	return fmt.Sprintf("ok name=%s build=%d probe=%d matches=%d keysum=%d",
		name, w.Build.Len(), w.Probe.Len(), w.ExpectedMatches, w.KeySum)
}

// cmdQuery runs one admitted pipeline over a named pair.
func (s *server) cmdQuery(tenant string, args []string) string {
	kv, err := kvArgs(args, []string{"pair", "engine", "fanout", "workers", "weight", "planned", "agg", "timeout", "tenant", "budget", "join_type", "strategy", "explain"})
	if err != nil {
		return errLine(cli.ExitUsage, err)
	}
	s.mu.Lock()
	w := s.pairs[kv["pair"]]
	s.mu.Unlock()
	if w == nil {
		return errLine(cli.ExitUsage, fmt.Errorf("unknown pair %q (create it with the pair command)", kv["pair"]))
	}
	if t := kv["tenant"]; t != "" {
		tenant = t
	}
	opts := []hashjoin.PipelineOption{hashjoin.WithTenant(tenant)}
	if s.opts.spillDir != "" {
		opts = append(opts, hashjoin.WithPipelineSpillDir(s.opts.spillDir))
	}
	nativeEngine := false
	switch kv["engine"] {
	case "", "native":
		nativeEngine = true
		opts = append(opts, hashjoin.WithEngine(hashjoin.EngineNative))
	case "sim":
		opts = append(opts, hashjoin.WithEngine(hashjoin.EngineSim))
	default:
		return errLine(cli.ExitUsage, fmt.Errorf("bad engine=%q (want native or sim)", kv["engine"]))
	}
	strategy, err := hashjoin.ParseStrategy(kv["strategy"])
	if err != nil {
		return errLine(cli.ExitUsage, err)
	}
	// The fan-out the query names: fanout= if given, else the
	// documented default 4 for strategy=partitioned, else none (0), which
	// leaves the choice to the planner.
	named := 0
	if strategy == hashjoin.StrategyPartitioned {
		named = 4
	}
	fanout, err := kvInt(kv, "fanout", named)
	if err != nil {
		return errLine(cli.ExitUsage, err)
	}
	workers, err := kvInt(kv, "workers", 0)
	if err != nil {
		return errLine(cli.ExitUsage, err)
	}
	weight, err := kvInt(kv, "weight", 0)
	if err != nil {
		return errLine(cli.ExitUsage, err)
	}
	planned, err := kvInt(kv, "planned", 0)
	if err != nil {
		return errLine(cli.ExitUsage, err)
	}
	agg, err := kvInt(kv, "agg", 0)
	if err != nil {
		return errLine(cli.ExitUsage, err)
	}
	budget, err := kvInt(kv, "budget", 0)
	if err != nil {
		return errLine(cli.ExitUsage, err)
	}
	jt, err := hashjoin.ParseJoinType(kv["join_type"])
	if err != nil {
		return errLine(cli.ExitUsage, err)
	}
	explain, err := kvInt(kv, "explain", 0)
	if err != nil {
		return errLine(cli.ExitUsage, err)
	}
	if jt != hashjoin.Inner {
		opts = append(opts, hashjoin.WithJoinType(jt))
	}
	opts = append(opts,
		hashjoin.WithStrategy(strategy),
		hashjoin.WithPipelineFanout(fanout),
		hashjoin.WithPipelineWorkers(workers),
		hashjoin.WithTenantWeight(weight),
	)
	if planned > 0 {
		opts = append(opts, hashjoin.WithPlannedScratch(uint64(planned)))
	}
	if budget > 0 {
		opts = append(opts, hashjoin.WithPipelineMemBudget(budget))
	}
	if agg != 0 {
		opts = append(opts, hashjoin.WithAggregation(4, w.Build.Len()))
	}

	ctx := context.Background()
	if v := kv["timeout"]; v != "" {
		d, perr := time.ParseDuration(v)
		if perr != nil || d <= 0 {
			return errLine(cli.ExitUsage, fmt.Errorf("bad timeout=%q (want a positive duration)", v))
		}
		if s.opts.queryTimeout > 0 && d > s.opts.queryTimeout {
			d = s.opts.queryTimeout
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}

	// The pair's cached build side is offered to every native query
	// that sets no budget= (a budget bounds a table built per query) and
	// names no partitioned run (strategy=partitioned, or a fan-out above
	// 1), the requests plan.Check refuses it for. The rule streams
	// every such query over it. The first query for a pair prepares the
	// shared row table (single-flight); later ones skip the build phase.
	cacheNote := ""
	if nativeEngine && s.cache.enabled() && budget == 0 &&
		strategy != hashjoin.StrategyPartitioned && fanout <= 1 {
		b, hit, berr := s.cache.get(kv["pair"], w.Build, func() (*hashjoin.BuildSide, error) {
			return s.env.PrepareBuildSide(ctx, w.Build,
				hashjoin.WithTenant(tenant),
				hashjoin.WithTenantWeight(weight),
				hashjoin.WithPipelineWorkers(workers))
		})
		if berr != nil {
			s.queriesErr.Add(1)
			return errLine(cli.ExitCodeFor(berr), berr)
		}
		opts = append(opts, hashjoin.WithBuildSide(b))
		if hit {
			cacheNote = " cache=hit"
		} else {
			cacheNote = " cache=miss"
		}
	}

	res, err := s.env.RunPipelineContext(ctx, w.Build, w.Probe, opts...)
	if err != nil {
		s.queriesErr.Add(1)
		return errLine(cli.ExitCodeFor(err), err)
	}
	s.queriesOK.Add(1)
	recoveryNote := ""
	if res.SpillFailovers > 0 || res.SpillRebuilds > 0 {
		s.spillFailovers.Add(res.SpillFailovers)
		s.spillRebuilds.Add(res.SpillRebuilds)
		recoveryNote = fmt.Sprintf(" spill_failovers=%d spill_rebuilds=%d",
			res.SpillFailovers, res.SpillRebuilds)
	}
	hybridNote := ""
	if budget > 0 {
		hybridNote = fmt.Sprintf(" resident=%d spilled=%d demoted=%d demoted_bytes=%d",
			res.ResidentPartitions, res.SpilledPartitions, res.DemotedPartitions, res.BytesDemoted)
	}
	planNote := " strategy=" + res.Plan.Strategy.String()
	if explain != 0 {
		planNote += fmt.Sprintf(" plan=%q", res.Plan.Explain())
	}
	return fmt.Sprintf("ok rows=%d keysum=%d elapsed_us=%d queue_wait_us=%d admitted_bytes=%d morsels=%d fanout=%d%s%s%s%s",
		res.NOutput, res.KeySum, res.Elapsed.Microseconds(), res.QueueWait.Microseconds(),
		res.AdmittedBytes, res.MorselsExecuted, res.JoinFanout, cacheNote, recoveryNote, hybridNote, planNote)
}

func (s *server) cmdStats() string {
	var b strings.Builder
	b.WriteString("ok")
	for _, st := range s.stats(spill.Health(s.opts.spillDir)) {
		fmt.Fprintf(&b, " %s=%v", st.key, st.val)
	}
	return b.String()
}

// errLine renders a failure response carrying the exit-code taxonomy:
// the stable status word, the numeric code (the exit code an hjquery
// run hitting the same error would return), and the message.
func errLine(code int, err error) string {
	return fmt.Sprintf("err status=%s code=%d msg=%q", cli.StatusName(code), code, err.Error())
}
