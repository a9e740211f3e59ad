package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hashjoin/internal/arena"
	"hashjoin/internal/workload"
)

// serveSpec freezes the serve_mix workload: the pairs the server
// holds, the open-loop rates of the traced pass, and the latency limit.
type serveSpec struct {
	defBuild, defProbe     int // pair "d": default, typed and agg queries
	smallBuild, smallProbe int // pair "c": cached queries and overwrites
	tuple                  int

	// rates are the queries per second the traced pass offers, fixed so
	// two commits face identical traffic: about 25%, 50% and 75% of the
	// closed-loop capacity of this mix over parallelism() connections on
	// the reference host (README, "Calibrating the serve rates"), frozen
	// as literals.
	rates [3]float64
	// limitMs is the latency limit on p95: ten times the p50 measured at
	// the low rate when the rates were calibrated, frozen.
	limitMs float64
}

var rateNames = [3]string{"lo", "mid", "hi"}

var fullServe = serveSpec{
	defBuild: 20_000, defProbe: 40_000, smallBuild: 5_000, smallProbe: 10_000, tuple: 40,
	rates:   [3]float64{120, 240, 360},
	limitMs: 65,
}

var smokeServe = serveSpec{
	defBuild: 1_000, defProbe: 2_000, smallBuild: 250, smallProbe: 500, tuple: 40,
	rates:   [3]float64{50, 100, 150},
	limitMs: 65,
}

// The traffic mix, in percent of requests. default runs at the
// server's default fanout (4) and so never touches the build cache;
// cached asks for fanout=1, the only path the cache serves; typed
// rotates the four non-inner join types; overwrite re-loads the pair
// cached probes, which invalidates its cached build side.
const (
	pctDefault = 60
	pctCached  = 20
	pctTyped   = 10
	pctAgg     = 9
	// the remaining 1% is overwrite
)

const serveTenants = 4

// serveSlice is how long the closed loop runs between two runs of the
// host yardstick.
const serveSlice = 500 * time.Millisecond

// closedLoopMaxQPS bounds how many requests the closed loop pre-draws
// per second of window; ten times the measured capacity.
const closedLoopMaxQPS = 5000

var classNames = []string{"default", "cached", "typed", "agg", "overwrite"}

var typedJoins = []string{"semi", "anti", "left-outer", "right-outer"}

// wireExpect is the reference (rows, keysum) of one query shape.
type wireExpect struct {
	rows   int
	keysum uint64
}

// pairOracle is the reference for one server-side pair, by join type
// ("" is inner).
type pairOracle map[string]wireExpect

// wireReference computes a pair's reference results for all five join
// types with a map join over its keys, following the checksum
// convention of the wire's keysum: Σ build key for inner and outer
// rows (0 for a null-padded build side), Σ probe key for semi and
// anti.
func wireReference(build, probe []uint32) pairOracle {
	hist := make(map[uint32]int, len(build))
	for _, k := range build {
		hist[k]++
	}
	seen := make(map[uint32]bool, len(build))
	var inner, semi, anti wireExpect
	for _, k := range probe {
		c := hist[k]
		if c == 0 {
			anti.rows++
			anti.keysum += uint64(k)
			continue
		}
		inner.rows += c
		inner.keysum += uint64(k) * uint64(c)
		semi.rows++
		semi.keysum += uint64(k)
		seen[k] = true
	}
	right := inner
	for k, c := range hist {
		if !seen[k] {
			right.rows += c
			right.keysum += uint64(k) * uint64(c)
		}
	}
	return pairOracle{
		"":            inner,
		"semi":        semi,
		"anti":        anti,
		"left-outer":  {rows: inner.rows + anti.rows, keysum: inner.keysum},
		"right-outer": right,
	}
}

// buildServer compiles cmd/hjserve into the output directory. It runs
// once per invocation, before the first set-up, so compile time is in
// no metric.
func buildServer(cfg runConfig) error {
	root, err := moduleRoot()
	if err != nil {
		return err
	}
	if _, err := exec.LookPath("go"); err != nil {
		return fmt.Errorf("building hjserve needs the go toolchain: %w", err)
	}
	cmd := exec.Command("go", "build", "-o", serverBinary(cfg), "./cmd/hjserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/hjserve: %v\n%s", err, out)
	}
	return nil
}

func serverBinary(cfg runConfig) string {
	bin, _ := filepath.Abs(filepath.Join(cfg.outDir, "hjserve"))
	return bin
}

// moduleRoot walks up from the working directory to the go.mod of the
// hashjoin module.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(b), "module hashjoin\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("module hashjoin not found above the working directory")
		}
		dir = parent
	}
}

// conn is one line-protocol connection.
type conn struct {
	c  net.Conn
	br *bufio.Reader
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReader(c)}, nil
}

// roundTrip sends one command line and reads its one response line.
func (c *conn) roundTrip(line string) (string, error) {
	c.c.SetDeadline(time.Now().Add(30 * time.Second))
	if _, err := c.c.Write([]byte(line + "\n")); err != nil {
		return "", err
	}
	resp, err := c.br.ReadString('\n')
	return strings.TrimSpace(resp), err
}

// parseReply splits "ok k=v k=v…" into its fields; an err line comes
// back as an error.
func parseReply(resp string) (map[string]string, error) {
	fields := strings.Fields(resp)
	if len(fields) == 0 || fields[0] != "ok" {
		return nil, fmt.Errorf("server replied %q", resp)
	}
	kv := make(map[string]string, len(fields))
	for _, f := range fields[1:] {
		if k, v, ok := strings.Cut(f, "="); ok {
			kv[k] = v
		}
	}
	return kv, nil
}

func kvUint(kv map[string]string, key string) uint64 {
	n, _ := strconv.ParseUint(kv[key], 10, 64)
	return n
}

// serveInst is one booted, loaded, warmed-up hjserve child plus the
// traffic it will be offered.
type serveInst struct {
	spec   serveSpec
	seed   int64 // arrival schedules and class draws
	proc   *exec.Cmd
	addr   string
	stats  string // the child's HTTP address, for /stats
	dir    string // the child's spill parent
	conns  []*conn
	oracle map[string]pairOracle // by pair name
	pairs  map[string]string     // pair name → its pair command line
	local  *workload.Pair        // pair "d" regenerated locally, for the layer replays
	loadMs float64               // time the pair commands took at set-up
}

func setupServe(cfg runConfig, rep int) (*serveInst, error) {
	spec := cfg.scale.serve
	s := &serveInst{
		spec:   spec,
		seed:   cfg.seed*1_000_003 + int64(rep),
		oracle: map[string]pairOracle{}, pairs: map[string]string{},
	}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()

	// The reference: regenerate each pair locally from the parameters
	// the pair command will carry, and map-join its keys.
	dataSeed := (cfg.seed%1_000_000+1_000_000)%1_000_000 + 1 // the pair command takes a non-negative seed
	for _, p := range []struct {
		name          string
		nBuild, nProb int
	}{{"d", spec.defBuild, spec.defProbe}, {"c", spec.smallBuild, spec.smallProbe}} {
		ws := workload.Spec{NBuild: p.nBuild, NProbe: p.nProb, TupleSize: spec.tuple, Seed: dataSeed}
		pair := workload.Generate(arena.New(workload.ArenaBytesFor(ws)), ws)
		s.oracle[p.name] = wireReference(pair.Build.Keys(), pair.Probe.Keys())
		s.pairs[p.name] = fmt.Sprintf("pair name=%s build=%d probe=%d tuple=%d seed=%d", p.name, p.nBuild, p.nProb, spec.tuple, dataSeed)
		if p.name == "d" {
			s.local = pair
		}
	}

	dir, err := os.MkdirTemp(cfg.outDir, "serve-spill-")
	if err != nil {
		return nil, err
	}
	s.dir = dir
	s.proc = exec.Command(serverBinary(cfg), "-addr", "127.0.0.1:0", "-http", "127.0.0.1:0", "-spill-dir", dir)
	s.proc.Stderr = os.Stderr
	stdout, err := s.proc.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := s.proc.Start(); err != nil {
		return nil, fmt.Errorf("start hjserve: %w", err)
	}
	// The first line announces the resolved ports; the rest of the
	// child's stdout is drained so it never blocks on a full pipe.
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		return nil, fmt.Errorf("hjserve exited before listening")
	}
	for _, f := range strings.Fields(sc.Text()) {
		if v, found := strings.CutPrefix(f, "addr="); found {
			s.addr = v
		}
		if v, found := strings.CutPrefix(f, "http="); found {
			s.stats = v
		}
	}
	go func() {
		for sc.Scan() {
		}
	}()
	if s.addr == "" || s.stats == "" {
		return nil, fmt.Errorf("cannot parse hjserve's listen line %q", sc.Text())
	}

	for i := 0; i < parallelism(); i++ {
		c, err := dial(s.addr)
		if err != nil {
			return nil, fmt.Errorf("dial hjserve: %w", err)
		}
		s.conns = append(s.conns, c)
	}
	start := time.Now()
	for _, pair := range []string{"d", "c"} {
		if err := s.do(s.conns[0], request{class: "overwrite", pair: pair}); err != nil {
			return nil, fmt.Errorf("load pair %s: %w", pair, err)
		}
	}
	s.loadMs = ms(time.Since(start))
	// Warm-up: every class once per warm-up query, so the build cache
	// holds pair c and each code path has run before the window opens.
	for i := 0; i < warmupQueries; i++ {
		for _, class := range classNames[:4] {
			if err := s.do(s.conns[i%len(s.conns)], s.request(class, i)); err != nil {
				return nil, fmt.Errorf("warm-up %s query: %w", class, err)
			}
		}
	}
	ok = true
	return s, nil
}

// request is one scheduled command.
type request struct {
	class  string
	pair   string // overwrite: the pair to (re)load
	joinTy string // typed: the join type
	tenant int
	due    time.Duration // offset from the window's start

	// filled by the connection that serves it
	sent, done         time.Time
	elapsed, queueWait time.Duration // as the server reported them
	cacheHit           bool
	err                error
}

// request builds the i-th request of a class.
func (s *serveInst) request(class string, i int) request {
	r := request{class: class, tenant: i % serveTenants}
	switch class {
	case "typed":
		r.joinTy = typedJoins[i%len(typedJoins)]
	case "overwrite":
		r.pair = "c"
	}
	return r
}

func (r *request) line(s *serveInst) string {
	tenant := fmt.Sprintf(" tenant=t%d", r.tenant)
	switch r.class {
	case "default":
		return "query pair=d" + tenant
	case "cached":
		return "query pair=c fanout=1" + tenant
	case "typed":
		return "query pair=d join_type=" + r.joinTy + tenant
	case "agg":
		return "query pair=d agg=1" + tenant
	default:
		return s.pairs[r.pair]
	}
}

// tuples is the input tuples the request makes the server join (an
// overwrite loads a pair and joins nothing).
func (r *request) tuples(s *serveInst) int {
	switch r.class {
	case "cached":
		return s.spec.smallBuild + s.spec.smallProbe
	case "overwrite":
		return 0
	}
	return s.spec.defBuild + s.spec.defProbe
}

// do sends r on c and checks the reply against the reference: an err
// line, a shed, and a wrong (rows, keysum) or (matches, keysum) are
// all failures.
func (s *serveInst) do(c *conn, r request) error {
	resp, err := c.roundTrip(r.line(s))
	if err != nil {
		return err
	}
	return s.check(&r, resp)
}

func (s *serveInst) check(r *request, resp string) error {
	kv, err := parseReply(resp)
	if err != nil {
		return err
	}
	if r.class == "overwrite" {
		want := s.oracle[r.pair][""]
		if got := int(kvUint(kv, "matches")); got != want.rows || kvUint(kv, "keysum") != want.keysum {
			return fmt.Errorf("pair %s: (matches, keysum) = (%d, %d), reference (%d, %d)", r.pair, got, kvUint(kv, "keysum"), want.rows, want.keysum)
		}
		return nil
	}
	pair := "d"
	if r.class == "cached" {
		pair = "c"
	}
	want := s.oracle[pair][r.joinTy]
	if got := int(kvUint(kv, "rows")); got != want.rows || kvUint(kv, "keysum") != want.keysum {
		return fmt.Errorf("%s query: (rows, keysum) = (%d, %d), reference (%d, %d)", r.class, got, kvUint(kv, "keysum"), want.rows, want.keysum)
	}
	r.elapsed = time.Duration(kvUint(kv, "elapsed_us")) * time.Microsecond
	r.queueWait = time.Duration(kvUint(kv, "queue_wait_us")) * time.Microsecond
	r.cacheHit = kv["cache"] == "hit"
	return nil
}

// draw picks the i-th request's class from the mix.
func (s *serveInst) draw(rng *rand.Rand, i int) *request {
	class := "overwrite"
	switch p := rng.Intn(100); {
	case p < pctDefault:
		class = "default"
	case p < pctDefault+pctCached:
		class = "cached"
	case p < pctDefault+pctCached+pctTyped:
		class = "typed"
	case p < pctDefault+pctCached+pctTyped+pctAgg:
		class = "agg"
	}
	r := s.request(class, i)
	return &r
}

// schedule draws d's worth of arrivals at rate per second: exponential
// gaps (a Poisson process), each with a class from the mix.
func (s *serveInst) schedule(d time.Duration, rate float64, seed int64) []*request {
	rng := rand.New(rand.NewSource(seed))
	var reqs []*request
	var t float64 // seconds
	for i := 0; ; i++ {
		t += rng.ExpFloat64() / rate
		if t >= d.Seconds() {
			return reqs
		}
		r := s.draw(rng, i)
		r.due = time.Duration(t * float64(time.Second))
		reqs = append(reqs, r)
	}
}

// serve sends r on c and fills in its timestamps and outcome.
func (s *serveInst) serve(c *conn, r *request) {
	r.sent = time.Now()
	resp, err := c.roundTrip(r.line(s))
	r.done = time.Now()
	if err == nil {
		err = s.check(r, resp)
	}
	r.err = err
}

// measure is the untraced pass: a closed loop. Each connection sends
// its next request — drawn from the seeded mix — when the previous
// reply arrives, so the server is saturated by parallelism() clients
// and never idles. What it yields is the service's capacity on this mix
// and the latency at that load.
//
// The open loop is in the traced pass, not here: at a fixed rate below
// capacity the server's threads sleep between arrivals, and on a
// virtualised host the wake-ups alone moved p50 by 20-30% and p90 by
// 40% from run to run (README, "Noise") — more than any bound this
// benchmark may set.
func (s *serveInst) measure(d time.Duration, rec *recorder) {
	// The class sequence, drawn up front so it depends on the seed and
	// not on which connection asks next; closedLoopMaxQPS is more than
	// the server can finish.
	rng := rand.New(rand.NewSource(s.seed))
	reqs := make([]*request, int(closedLoopMaxQPS*d.Seconds())+1)
	for i := range reqs {
		reqs[i] = s.draw(rng, i)
	}
	var next atomic.Int64
	start := time.Now()
	for time.Since(start) < d {
		// One slice of load, then the host yardstick while the server
		// idles: the kernel must not compete with what it is held against.
		sliceStart := time.Now()
		end := sliceStart.Add(min(serveSlice, d-time.Since(start)))
		var wg sync.WaitGroup
		for _, c := range s.conns {
			wg.Add(1)
			go func(c *conn) {
				defer wg.Done()
				for time.Now().Before(end) {
					i := int(next.Add(1)) - 1
					if i >= len(reqs) {
						return
					}
					s.serve(c, reqs[i])
				}
			}(c)
		}
		wg.Wait()
		rec.window += time.Since(sliceStart)
		rec.ref.tick()
	}
	for _, r := range reqs[:min(int(next.Load()), len(reqs))] {
		if r.err != nil {
			rec.fail(r.err)
			continue
		}
		rec.ok(r.done.Sub(r.sent), r.tuples(s))
	}
	rec.rssMiB = max(rec.rssMiB, s.peakRSS())
}

// openLoop offers a Poisson schedule at rate to the server: a
// dispatcher releases each request at its due time whether or not
// earlier ones have returned, and the connections serve released
// requests in order. It returns the requests, filled in, the instant
// the window opened, and how late the dispatcher itself ran (release
// time minus due time), in ms.
func (s *serveInst) openLoop(d time.Duration, rate float64, seed int64) (reqs []*request, start time.Time, lateMs []float64) {
	reqs = s.schedule(d, rate, seed)
	// Buffered to the number of sends: the dispatcher must never block
	// on a slow server, or the loop would close.
	ch := make(chan *request, len(reqs))
	var wg sync.WaitGroup
	for _, c := range s.conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for r := range ch {
				s.serve(c, r)
			}
		}(c)
	}
	start = time.Now()
	lateMs = make([]float64, 0, len(reqs))
	for _, r := range reqs {
		time.Sleep(time.Until(start.Add(r.due)))
		lateMs = append(lateMs, ms(time.Since(start)-r.due))
		ch <- r
	}
	close(ch)
	wg.Wait()
	return reqs, start, lateMs
}

// peakRSS is the child's resident-set high-water mark so far.
func (s *serveInst) peakRSS() float64 {
	return procRSSMiB(strconv.Itoa(s.proc.Process.Pid), "VmHWM")
}

// serverStats fetches the server's /stats counters.
func (s *serveInst) serverStats() (map[string]float64, error) {
	resp, err := http.Get("http://" + s.stats + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var raw map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(raw))
	for k, v := range raw {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out, nil
}

// close stops the child — SIGTERM, which drains it — and waits for it
// to exit.
func (s *serveInst) close() {
	for _, c := range s.conns {
		c.c.Close()
	}
	if s.proc != nil && s.proc.Process != nil {
		s.proc.Process.Signal(syscall.SIGTERM)
		exited := make(chan struct{})
		go func() {
			s.proc.Wait()
			close(exited)
		}()
		select {
		case <-exited:
		case <-time.After(10 * time.Second):
			s.proc.Process.Kill()
			<-exited
		}
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// layers is the traced pass: the open loop. It offers Poisson arrivals
// at the three frozen rates, a third of d each, timing every request
// from when it was due and recording its spans from the client side;
// then it replays the layers below the wire in-process on a local copy
// of the default pair.
func (s *serveInst) layers(d time.Duration, tr *tracer, rec *recorder, out *metricSet) error {
	// hjserve's floor: a command that does nothing.
	var pings []float64
	for i := 0; i < 200; i++ {
		start := time.Now()
		if resp, err := s.conns[0].roundTrip("ping"); err != nil || resp != "ok" {
			return fmt.Errorf("ping: %q %v", resp, err)
		}
		pings = append(pings, us(time.Since(start)))
	}
	out.set("hjserve.ping_us_p50", median(pings))
	out.set("hjserve.pair_load_ms", s.loadMs)

	var maxOK float64
	var defaultElapsedMs []float64
	query := 0
	for ri, rate := range s.spec.rates {
		name := rateNames[ri]
		before, err := s.serverStats()
		if err != nil {
			return fmt.Errorf("/stats: %w", err)
		}
		rec.ref.last = time.Time{}
		rec.ref.tick() // between rates, while the server idles
		reqs, start, lateMs := s.openLoop(d/3, rate, s.seed+int64(ri))
		after, err := s.serverStats()
		if err != nil {
			return fmt.Errorf("/stats: %w", err)
		}

		// Spans, recorded after the fact from the timestamps each
		// connection took: request (due → done) ⊃ client_queue (due →
		// sent) and roundtrip (sent → done) ⊃ the server's own queue wait
		// and pipeline time. Recording costs the request nothing, so
		// bench.trace_overhead_frac stays 0 on this workload.
		var lat, wire, queueMs []float64
		byClass := map[string][]float64{}
		hits, cachedQueries, failed := 0, 0, 0
		var backlog time.Duration
		for i, r := range reqs {
			query++
			if r.err != nil {
				rec.fail(r.err)
				failed++
				continue
			}
			due := start.Add(r.due)
			rec.ok(r.done.Sub(due), r.tuples(s))
			l := ms(r.done.Sub(due))
			lat = append(lat, l)
			byClass[r.class] = append(byClass[r.class], l)
			if i >= len(reqs)*9/10 {
				backlog = max(backlog, r.sent.Sub(due))
			}
			if r.class == "cached" {
				cachedQueries++
				if r.cacheHit {
					hits++
				}
			}
			if r.class == "default" && ri == 0 {
				defaultElapsedMs = append(defaultElapsedMs, ms(r.elapsed))
			}
			if r.class != "overwrite" {
				wire = append(wire, us(r.done.Sub(r.sent)-r.elapsed-r.queueWait))
				queueMs = append(queueMs, ms(r.queueWait))
			}
			id := tr.add("hjserve.request:"+r.class, -1, query, tr.at(due), tr.at(r.done))
			tr.add("hjserve.client_queue", id, query, tr.at(due), tr.at(r.sent))
			rt := tr.add("hjserve.roundtrip", id, query, tr.at(r.sent), tr.at(r.done))
			end := tr.at(r.done)
			tr.add("hashjoin.pipeline", rt, query, end-r.elapsed.Nanoseconds(), end)
			tr.add("sched.queue_wait", rt, query, end-(r.elapsed+r.queueWait).Nanoseconds(), end-r.elapsed.Nanoseconds())
		}
		if len(lat) == 0 {
			return fmt.Errorf("rate %s: no request completed correctly (first failure: %v)", name, rec.firstErr)
		}
		p95 := quantileOf(lat, 0.95)
		out.set("hjserve.p50_ms_"+name, median(lat))
		out.set("hjserve.p95_ms_"+name, p95)
		out.set("sched.queue_wait_ms_p95_"+name, quantileOf(queueMs, 0.95))
		// The highest rate that met the limit on p95 with nothing failed
		// and no backlog left in the last tenth of its window.
		if failed == 0 && p95 <= s.spec.limitMs && ms(backlog) <= s.spec.limitMs {
			maxOK = max(maxOK, rate)
		}
		switch name {
		case "lo":
			// The fixed per-query costs read cleanest where nothing queues.
			out.set("bench.traced_query_ms_p50", median(lat))
			out.set("bench.traced_query_ms_p90", quantileOf(lat, 0.9))
			out.set("hjserve.wire_overhead_us_p50", median(wire))
			for _, class := range classNames {
				if xs := byClass[class]; len(xs) > 0 {
					out.set("hjserve.class_"+class+"_ms_p50", median(xs))
				}
			}
			// Expected ≈ 1 on the cached class and 0 on everything else:
			// the cache serves fanout=1 only and the server's default is 4.
			out.set("hjserve.build_cache_hit_ratio", safeDiv(float64(hits), float64(cachedQueries)))
			out.set("hjserve.build_cache_evictions", after["build_cache_evictions"]-before["build_cache_evictions"])
			out.set("sched.reclaims_per_query", (after["reclaims"]-before["reclaims"])/float64(len(reqs)))
		case "hi":
			out.set("hjserve.p99_ms_hi", quantileOf(lat, 0.99))
			shed := 0.0
			for _, k := range []string{"shed_too_large", "shed_queue_full", "shed_timeout", "shed_draining"} {
				shed += after[k] - before[k]
			}
			out.set("sched.shed_frac", shed/float64(len(reqs)))
		}
		if name != "hi" {
			// Past the knee the generator is allowed to run late; below
			// it, lateness means the harness, not the server, was slow.
			out.set("bench.gen_lateness_ms_p95", max(out.get("bench.gen_lateness_ms_p95"), quantileOf(lateMs, 0.95)))
		}
	}
	out.set("hjserve.max_ok_qps", maxOK)

	// The layers under the wire, on the default class's own data and
	// the server's default strategy (fanout 4). The server's own
	// pipeline time of a default query at the low rate is the base the
	// layer shares are taken against.
	lr := &layerRels{a: s.local.Build.Arena(), build: s.local.Build, probe: s.local.Probe, width: s.spec.tuple}
	inner := s.oracle["d"][""]
	lj := layerJoin{fanout: 4, workers: parallelism()}
	queryMs := median(defaultElapsedMs)
	tuples := float64(s.spec.defBuild + s.spec.defProbe)
	out.set("hashjoin.pipeline_ns_per_tuple", queryMs*1e6/tuples)
	if err := replayNative(lr, lj, expect{rows: inner.rows, keysum: inner.keysum}, tr, out, queryMs); err != nil {
		return err
	}
	out.set("hashjoin.overhead_ns_per_tuple", queryMs*1e6/tuples-out.get("engine.run_ns_per_tuple"))
	return replayFixedCosts(lr, tr, out)
}
