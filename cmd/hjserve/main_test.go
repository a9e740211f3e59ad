package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"hashjoin"
	"hashjoin/internal/fault"
)

// startServer runs a server on free ports and returns it with a
// cleanup that drains it.
func startServer(t *testing.T, opts serverOptions) *server {
	t.Helper()
	if opts.addr == "" {
		opts.addr = "127.0.0.1:0"
	}
	if opts.httpAddr == "" {
		opts.httpAddr = "127.0.0.1:0"
	}
	if opts.capacity == 0 {
		opts.capacity = 128 << 20
	}
	s := newServer(opts)
	if err := s.listen(); err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan struct{})
	go func() {
		s.serve()
		close(done)
	}()
	t.Cleanup(func() {
		s.shutdown()
		<-done
	})
	return s
}

// client is one protocol connection.
type client struct {
	conn net.Conn
	r    *bufio.Reader
}

func dial(t *testing.T, s *server) *client {
	t.Helper()
	conn, err := net.Dial("tcp", s.ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	return &client{conn: conn, r: bufio.NewReader(conn)}
}

// roundTrip sends one command and returns the response line.
func (c *client) roundTrip(t *testing.T, cmd string) string {
	t.Helper()
	if _, err := fmt.Fprintln(c.conn, cmd); err != nil {
		t.Fatalf("send %q: %v", cmd, err)
	}
	line, err := c.r.ReadString('\n')
	if err != nil {
		t.Fatalf("read response to %q: %v", cmd, err)
	}
	return strings.TrimSpace(line)
}

// kv parses an "ok k=v ..." or "err k=v ..." response line.
func kv(t *testing.T, line string) (string, map[string]string) {
	t.Helper()
	fields := strings.Fields(line)
	if len(fields) == 0 {
		t.Fatalf("empty response")
	}
	m := make(map[string]string)
	for _, f := range fields[1:] {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			// msg="..." may contain spaces; keep whatever parses.
			continue
		}
		m[k] = v
	}
	return fields[0], m
}

func mustInt(t *testing.T, m map[string]string, key string) int {
	t.Helper()
	n, err := strconv.Atoi(m[key])
	if err != nil {
		t.Fatalf("response key %s=%q is not an integer", key, m[key])
	}
	return n
}

func TestServeProtocolBasics(t *testing.T) {
	s := startServer(t, serverOptions{})
	c := dial(t, s)

	if line := c.roundTrip(t, "ping"); line != "ok" {
		t.Fatalf("ping: %q", line)
	}

	status, m := kv(t, c.roundTrip(t, "pair name=t1 build=2000 probe=4000 tuple=40 seed=7"))
	if status != "ok" {
		t.Fatalf("pair: %v %v", status, m)
	}
	wantRows := mustInt(t, m, "matches")
	wantSum := m["keysum"]

	status, m = kv(t, c.roundTrip(t, "query pair=t1 fanout=4 agg=1"))
	if status != "ok" {
		t.Fatalf("query: %v %v", status, m)
	}
	if got := mustInt(t, m, "rows"); got != wantRows {
		t.Fatalf("rows = %d, want %d", got, wantRows)
	}
	if m["keysum"] != wantSum {
		t.Fatalf("keysum = %s, want %s", m["keysum"], wantSum)
	}
	if mustInt(t, m, "morsels") == 0 {
		t.Fatal("morsels = 0 for a fanout-4 query")
	}
	if mustInt(t, m, "admitted_bytes") == 0 {
		t.Fatal("admitted_bytes = 0: query did not get a window")
	}

	// The sim engine answers the same logical result.
	status, m = kv(t, c.roundTrip(t, "query pair=t1 engine=sim agg=1"))
	if status != "ok" || mustInt(t, m, "rows") != wantRows {
		t.Fatalf("sim query: %v %v", status, m)
	}

	status, m = kv(t, c.roundTrip(t, "stats"))
	if status != "ok" || mustInt(t, m, "queries_ok") != 2 || mustInt(t, m, "in_flight") != 0 {
		t.Fatalf("stats: %v %v", status, m)
	}

	if line := c.roundTrip(t, "quit"); !strings.HasPrefix(line, "ok") {
		t.Fatalf("quit: %q", line)
	}
}

// TestServeBuildCache exercises the build-side cache end to end: the
// first streaming query against a pair builds and caches the table,
// later ones hit it (same exact results), overwriting the pair
// invalidates it, and the counters surface on both stats doors.
func TestServeBuildCache(t *testing.T) {
	s := startServer(t, serverOptions{buildCache: 64 << 20})
	c := dial(t, s)

	status, m := kv(t, c.roundTrip(t, "pair name=c1 build=3000 probe=6000 tuple=40 seed=4"))
	if status != "ok" {
		t.Fatalf("pair: %v %v", status, m)
	}
	wantRows := mustInt(t, m, "matches")
	wantSum := m["keysum"]

	status, m = kv(t, c.roundTrip(t, "query pair=c1 fanout=1"))
	if status != "ok" || m["cache"] != "miss" {
		t.Fatalf("first streaming query: %v %v, want ok cache=miss", status, m)
	}
	if mustInt(t, m, "rows") != wantRows || m["keysum"] != wantSum {
		t.Fatalf("first query result %v, want rows=%d keysum=%s", m, wantRows, wantSum)
	}
	for i := 0; i < 3; i++ {
		status, m = kv(t, c.roundTrip(t, "query pair=c1 fanout=1"))
		if status != "ok" || m["cache"] != "hit" {
			t.Fatalf("repeat query %d: %v %v, want ok cache=hit", i, status, m)
		}
		if mustInt(t, m, "rows") != wantRows || m["keysum"] != wantSum {
			t.Fatalf("cached query %d result %v, want rows=%d keysum=%s", i, m, wantRows, wantSum)
		}
	}

	// Partitioned and sim queries bypass the cache entirely.
	status, m = kv(t, c.roundTrip(t, "query pair=c1 fanout=4"))
	if status != "ok" {
		t.Fatalf("fanout-4 query: %v %v", status, m)
	}
	if _, ok := m["cache"]; ok {
		t.Fatalf("partitioned query touched the cache: %v", m)
	}

	status, m = kv(t, c.roundTrip(t, "stats"))
	if status != "ok" {
		t.Fatalf("stats: %v", m)
	}
	if mustInt(t, m, "build_cache_hits") != 3 || mustInt(t, m, "build_cache_misses") != 1 {
		t.Fatalf("cache counters = hits %s misses %s, want 3/1", m["build_cache_hits"], m["build_cache_misses"])
	}
	if mustInt(t, m, "build_cache_resident_bytes") == 0 {
		t.Fatal("build_cache_resident_bytes = 0 with a cached table")
	}

	// Regenerating the pair under the same name must evict the stale
	// table: the next streaming query rebuilds over the new relation.
	status, m = kv(t, c.roundTrip(t, "pair name=c1 build=2000 probe=4000 tuple=40 seed=9"))
	if status != "ok" {
		t.Fatalf("pair overwrite: %v %v", status, m)
	}
	newRows := mustInt(t, m, "matches")
	status, m = kv(t, c.roundTrip(t, "query pair=c1 fanout=1"))
	if status != "ok" || m["cache"] != "miss" || mustInt(t, m, "rows") != newRows {
		t.Fatalf("post-overwrite query: %v %v, want cache=miss rows=%d", status, m, newRows)
	}

	status, m = kv(t, c.roundTrip(t, "stats"))
	if status != "ok" || mustInt(t, m, "build_cache_evictions") == 0 {
		t.Fatalf("stats after overwrite: %v, want evictions > 0", m)
	}

	// The HTTP door carries the same counters.
	resp, err := http.Get("http://" + s.hln.Addr().String() + "/stats")
	if err != nil {
		t.Fatalf("http stats: %v", err)
	}
	var js map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&js); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()
	if js["build_cache_hits"].(float64) != 3 || js["build_cache_misses"].(float64) != 2 {
		t.Fatalf("http cache counters = %v/%v, want 3/2", js["build_cache_hits"], js["build_cache_misses"])
	}
}

// TestServeStatsDoorsAgree: the stats line and the /stats JSON render
// the same scalar counters, key for key, after a query has moved them.
func TestServeStatsDoorsAgree(t *testing.T) {
	s := startServer(t, serverOptions{})
	c := dial(t, s)
	if status, m := kv(t, c.roundTrip(t, "pair name=t1 build=500 probe=1000 tuple=40 seed=3")); status != "ok" {
		t.Fatalf("pair: %v", m)
	}
	if status, m := kv(t, c.roundTrip(t, "query pair=t1 fanout=4")); status != "ok" {
		t.Fatalf("query: %v", m)
	}
	status, line := kv(t, c.roundTrip(t, "stats"))
	if status != "ok" {
		t.Fatalf("stats: %v", line)
	}
	resp, err := http.Get("http://" + s.hln.Addr().String() + "/stats")
	if err != nil {
		t.Fatalf("http stats: %v", err)
	}
	var js map[string]any
	err = json.NewDecoder(resp.Body).Decode(&js)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	var lineKeys, jsonKeys []string
	for k := range line {
		lineKeys = append(lineKeys, k)
	}
	for k, v := range js {
		if _, ok := v.(float64); ok {
			jsonKeys = append(jsonKeys, k)
		}
	}
	slices.Sort(lineKeys)
	slices.Sort(jsonKeys)
	if !slices.Equal(lineKeys, jsonKeys) {
		t.Fatalf("stats line keys %v,\n/stats scalar keys %v", lineKeys, jsonKeys)
	}
	for _, k := range []string{"queries_ok", "admitted", "completed", "morsels_executed"} {
		if mustInt(t, line, k) == 0 || js[k].(float64) != float64(mustInt(t, line, k)) {
			t.Fatalf("%s: line %s, JSON %v; want the same non-zero count", k, line[k], js[k])
		}
	}
}

// TestServeBuildCacheConcurrent has 8 tenants hammer one pair with
// streaming queries: the table is built at most a handful of times
// (single flight), every result is exact, and the counters balance.
func TestServeBuildCacheConcurrent(t *testing.T) {
	s := startServer(t, serverOptions{
		buildCache: 64 << 20,
		service:    hashjoin.ServiceConfig{MaxConcurrent: 4},
	})
	setup := dial(t, s)
	status, m := kv(t, setup.roundTrip(t, "pair name=t1 build=3000 probe=6000 tuple=40 seed=3"))
	if status != "ok" {
		t.Fatal("pair failed")
	}
	wantRows := strconv.Itoa(mustInt(t, m, "matches"))

	const clients, queries = 8, 3
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", s.ln.Addr().String())
			if err != nil {
				t.Errorf("client %d dial: %v", i, err)
				return
			}
			defer conn.Close()
			r := bufio.NewReader(conn)
			for q := 0; q < queries; q++ {
				fmt.Fprintf(conn, "query pair=t1 fanout=1 weight=%d\n", 1+i%3)
				line, err := r.ReadString('\n')
				if err != nil {
					t.Errorf("client %d: %v", i, err)
					return
				}
				_, m := kv(t, strings.TrimSpace(line))
				if m["rows"] != wantRows {
					t.Errorf("client %d: %q, want rows=%s", i, line, wantRows)
					return
				}
			}
		}(i)
	}
	wg.Wait()

	_, m = kv(t, setup.roundTrip(t, "stats"))
	hits, misses := mustInt(t, m, "build_cache_hits"), mustInt(t, m, "build_cache_misses")
	if hits+misses != clients*queries {
		t.Fatalf("hits %d + misses %d != %d streaming queries", hits, misses, clients*queries)
	}
	if misses < 1 || hits < 1 {
		t.Fatalf("cache did not share the build: hits=%d misses=%d", hits, misses)
	}
}

// TestServeStatusTaxonomy pins the wire statuses onto the exit-code
// taxonomy: usage=2 for protocol mistakes, memory=3 for an impossible
// footprint, cancelled=4 for a timeout.
func TestServeStatusTaxonomy(t *testing.T) {
	s := startServer(t, serverOptions{
		capacity: 64 << 20,
		budget:   8 << 20,
		service:  hashjoin.ServiceConfig{MaxConcurrent: 1},
	})
	c := dial(t, s)
	if status, _ := kv(t, c.roundTrip(t, "pair name=t1 build=1000 tuple=40")); status != "ok" {
		t.Fatal("pair failed")
	}

	cases := []struct {
		cmd    string
		status string
		code   int
	}{
		{"bogus", "usage", 2},
		{"query pair=missing", "usage", 2},
		{"query pair=t1 fanout=abc", "usage", 2},
		{"query pair=t1 nonsense=1", "usage", 2},
		{"pair name=t2 build=1000 tuple=4", "usage", 2},
		{"query pair=t1 planned=33554432", "memory", 3}, // 32 MB window > 8 MB budget
		{"query pair=t1 timeout=1ns", "cancelled", 4},
	}
	for _, tc := range cases {
		status, m := kv(t, c.roundTrip(t, tc.cmd))
		if status != "err" || m["status"] != tc.status || mustInt(t, m, "code") != tc.code {
			t.Errorf("%q -> %s %v, want err status=%s code=%d", tc.cmd, status, m, tc.status, tc.code)
		}
	}

	// Errors did not wedge the slot: a clean query still runs.
	if status, _ := kv(t, c.roundTrip(t, "query pair=t1")); status != "ok" {
		t.Fatal("post-error query failed")
	}
}

// TestServeJoinTypesAndExplain drives the join_type=, strategy=, and
// explain= keys end to end. The generated pair has unique build keys
// and the first nBuild probe tuples matching one build tuple each, so
// the per-join-type row counts follow from the pair's inner ground
// truth: semi emits each matched probe row once (= matches), anti the
// remaining probe rows, left-outer every probe row.
func TestServeJoinTypesAndExplain(t *testing.T) {
	s := startServer(t, serverOptions{})
	c := dial(t, s)

	const nBuild, nProbe = 1500, 3000
	status, m := kv(t, c.roundTrip(t,
		fmt.Sprintf("pair name=j1 build=%d probe=%d tuple=40 seed=5", nBuild, nProbe)))
	if status != "ok" {
		t.Fatalf("pair: %v %v", status, m)
	}
	matches := mustInt(t, m, "matches")
	innerSum := m["keysum"]

	// Semi join: one row per matched probe tuple; with unique build keys
	// the probe keysum equals the inner build keysum.
	status, m = kv(t, c.roundTrip(t, "query pair=j1 join_type=semi agg=1"))
	if status != "ok" || mustInt(t, m, "rows") != matches || m["keysum"] != innerSum {
		t.Fatalf("semi query: %v %v, want rows=%d keysum=%s", status, m, matches, innerSum)
	}

	// Anti join: the probe rows the semi join dropped.
	status, m = kv(t, c.roundTrip(t, "query pair=j1 join_type=anti agg=1"))
	if status != "ok" || mustInt(t, m, "rows") != nProbe-matches {
		t.Fatalf("anti query: %v %v, want rows=%d", status, m, nProbe-matches)
	}

	// Left outer: every probe row survives; null-padded rows aggregate
	// under key 0 and add nothing to the keysum.
	status, m = kv(t, c.roundTrip(t, "query pair=j1 join_type=left-outer agg=1"))
	if status != "ok" || mustInt(t, m, "rows") != nProbe || m["keysum"] != innerSum {
		t.Fatalf("left-outer query: %v %v, want rows=%d keysum=%s", status, m, nProbe, innerSum)
	}

	// explain=1 engages the planner and reports its decision; sim engine
	// exercises the same path on the other backend.
	for _, cmd := range []string{
		"query pair=j1 join_type=semi explain=1",
		"query pair=j1 engine=sim join_type=semi strategy=auto explain=1",
	} {
		line := c.roundTrip(t, cmd)
		if !strings.HasPrefix(line, "ok ") || !strings.Contains(line, "join_type=semi") ||
			!strings.Contains(line, `plan="strategy=`) {
			t.Fatalf("%q -> %q, want ok with plan=\"strategy=... join_type=semi ...\"", cmd, line)
		}
	}

	// A forced strategy executes and is reported as forced.
	line := c.roundTrip(t, "query pair=j1 strategy=partitioned join_type=anti explain=1")
	if !strings.HasPrefix(line, "ok ") || !strings.Contains(line, "strategy=partitioned") ||
		!strings.Contains(line, "forced") {
		t.Fatalf("forced partitioned: %q", line)
	}

	// The nested-loop strategy is retired: naming it is a usage error.
	if status, m := kv(t, c.roundTrip(t, "query pair=j1 strategy=nested-loop")); status != "err" ||
		m["status"] != "usage" || mustInt(t, m, "code") != 2 {
		t.Fatalf("strategy=nested-loop -> %v %v, want err status=usage code=2", status, m)
	}

	// Bad values answer with the usage taxonomy, not a hung query.
	for _, cmd := range []string{
		"query pair=j1 join_type=full",
		"query pair=j1 strategy=bogus",
		"query pair=j1 explain=x",
	} {
		status, m := kv(t, c.roundTrip(t, cmd))
		if status != "err" || mustInt(t, m, "code") != 2 {
			t.Fatalf("%q -> %v %v, want err code=2", cmd, status, m)
		}
	}
}

// TestServeConcurrentClients drives parallel connections through the
// same pair and checks every one gets the exact result while the HTTP
// side door stays responsive.
func TestServeConcurrentClients(t *testing.T) {
	base := fault.Goroutines()
	s := startServer(t, serverOptions{service: hashjoin.ServiceConfig{MaxConcurrent: 4}})
	setup := dial(t, s)
	status, m := kv(t, setup.roundTrip(t, "pair name=t1 build=3000 probe=6000 tuple=40 seed=3"))
	if status != "ok" {
		t.Fatal("pair failed")
	}
	wantRows := mustInt(t, m, "matches")

	const clients = 8
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", s.ln.Addr().String())
			if err != nil {
				t.Errorf("client %d dial: %v", i, err)
				return
			}
			defer conn.Close()
			r := bufio.NewReader(conn)
			for q := 0; q < 3; q++ {
				fmt.Fprintf(conn, "query pair=t1 fanout=4 weight=%d agg=1\n", 1+i%3)
				line, err := r.ReadString('\n')
				if err != nil {
					t.Errorf("client %d: %v", i, err)
					return
				}
				fields := strings.Fields(strings.TrimSpace(line))
				if len(fields) == 0 || fields[0] != "ok" {
					t.Errorf("client %d: %q", i, line)
					return
				}
				for _, f := range fields[1:] {
					if k, v, _ := strings.Cut(f, "="); k == "rows" && v != strconv.Itoa(wantRows) {
						t.Errorf("client %d: rows=%s, want %d", i, v, wantRows)
					}
				}
			}
		}(i)
	}

	// Health and stats under load.
	hurl := "http://" + s.hln.Addr().String()
	resp, err := http.Get(hurl + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz under load: %v %v", resp, err)
	}
	resp.Body.Close()
	wg.Wait()

	resp, err = http.Get(hurl + "/stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatalf("stats decode: %v", err)
	}
	resp.Body.Close()
	if got := stats["queries_ok"].(float64); got != clients*3 {
		t.Fatalf("queries_ok = %v, want %d", got, clients*3)
	}
	if got := stats["in_flight"].(float64); got != 0 {
		t.Fatalf("in_flight = %v after the wave", got)
	}

	// Drain: later connections are refused, health turns 503, no
	// goroutines leak.
	s.shutdown()
	if _, err := net.Dial("tcp", s.ln.Addr().String()); err == nil {
		t.Fatal("dial succeeded after drain")
	}
	resp, err = http.Get(hurl + "/healthz")
	if err == nil {
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("healthz after drain: %d, want 503", resp.StatusCode)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	fault.CheckGoroutines(t, base)
}

// TestServeDefaultUsesCache pins the planner-chosen default: a native
// query naming neither fanout= nor strategy= probes the pair's cached
// build side for every join type, with and without aggregation, and
// answers exactly what the partitioned (fanout=4) query answers. A
// budget= query and a cacheless server keep the per-query build, and
// concurrent default queries of mixed types share one table.
func TestServeDefaultUsesCache(t *testing.T) {
	const (
		nBuild, nProbe = 20000, 40000
		load           = "pair name=d build=20000 probe=40000 tuple=40 seed=3"
	)
	s := startServer(t, serverOptions{
		buildCache: 64 << 20,
		service:    hashjoin.ServiceConfig{MaxConcurrent: 4},
	})
	c := dial(t, s)

	// Ground truth per join type from the pair's inner (matches, keysum):
	// build keys are unique and every build row has one probe match, so
	// anti keeps nProbe-nBuild rows (its keysum comes from fanout=4).
	status, m := kv(t, c.roundTrip(t, load))
	if status != "ok" || mustInt(t, m, "matches") != nBuild {
		t.Fatalf("pair: %v %v, want matches=%d", status, m, nBuild)
	}
	type want struct{ rows, keysum string }
	inner := want{m["matches"], m["keysum"]}
	truth := map[string]want{
		"inner": inner, "semi": inner, "right-outer": inner,
		"left-outer": {strconv.Itoa(nProbe), inner.keysum},
	}
	joinTypes := []string{"inner", "left-outer", "right-outer", "semi", "anti"}
	for _, jt := range joinTypes {
		for _, agg := range []int{0, 1} {
			// Reloading the pair invalidates its cached table, so each
			// combination starts cold.
			if status, _ := kv(t, c.roundTrip(t, load)); status != "ok" {
				t.Fatal("pair reload failed")
			}
			q := fmt.Sprintf("query pair=d join_type=%s agg=%d", jt, agg)
			status, ref := kv(t, c.roundTrip(t, q+" fanout=4"))
			if status != "ok" || ref["fanout"] != "4" {
				t.Fatalf("%s fanout=4: %v %v", q, status, ref)
			}
			if _, ok := ref["cache"]; ok {
				t.Fatalf("%s fanout=4 touched the cache: %v", q, ref)
			}
			if jt == "anti" {
				if mustInt(t, ref, "rows") != nProbe-nBuild {
					t.Fatalf("%s fanout=4: rows=%s, want %d", q, ref["rows"], nProbe-nBuild)
				}
				truth[jt] = want{ref["rows"], ref["keysum"]}
			}
			if w := truth[jt]; ref["rows"] != w.rows || ref["keysum"] != w.keysum {
				t.Fatalf("%s fanout=4: rows=%s keysum=%s, want %s/%s", q, ref["rows"], ref["keysum"], w.rows, w.keysum)
			}
			for _, cache := range []string{"miss", "hit"} {
				status, m := kv(t, c.roundTrip(t, q))
				if status != "ok" || m["cache"] != cache || m["strategy"] != "stream" || m["fanout"] != "1" {
					t.Fatalf("%s: %v %v, want ok cache=%s strategy=stream fanout=1", q, status, m, cache)
				}
				if m["rows"] != ref["rows"] || m["keysum"] != ref["keysum"] {
					t.Fatalf("%s cache=%s: rows=%s keysum=%s, fanout=4 answered %s/%s",
						q, cache, m["rows"], m["keysum"], ref["rows"], ref["keysum"])
				}
			}
		}
	}

	// explain=1 shows why a default query streamed.
	line := c.roundTrip(t, "query pair=d explain=1")
	if !strings.Contains(line, "cache=hit") ||
		!strings.Contains(line, `prebuilt build side pins the streaming strategy (planner preferred partitioned)`) {
		t.Fatalf("default explain: %q, want cache=hit and the prebuilt override reason", line)
	}

	// Naming the streaming (or auto) strategy keeps the cache; forcing
	// another strategy builds per query.
	for cmd, cache := range map[string]string{
		"query pair=d strategy=stream":      "hit",
		"query pair=d strategy=auto":        "hit",
		"query pair=d strategy=partitioned": "",
	} {
		status, m := kv(t, c.roundTrip(t, cmd))
		if status != "ok" || m["cache"] != cache || m["rows"] != truth["inner"].rows || m["keysum"] != truth["inner"].keysum {
			t.Fatalf("%q: %v %v, want exact rows with cache=%q", cmd, status, m, cache)
		}
	}

	// A budgeted default query builds under its budget, not from the cache.
	status, m = kv(t, c.roundTrip(t, "query pair=d budget=1048576"))
	if status != "ok" || m["rows"] != truth["inner"].rows || m["keysum"] != truth["inner"].keysum {
		t.Fatalf("budgeted default: %v %v", status, m)
	}
	if _, ok := m["cache"]; ok {
		t.Fatalf("budgeted default query touched the cache: %v", m)
	}

	// Four connections, mixed join types, one pair reloaded cold: every
	// answer is exact and the table is shared.
	if status, _ := kv(t, c.roundTrip(t, load)); status != "ok" {
		t.Fatal("pair reload failed")
	}
	_, before := kv(t, c.roundTrip(t, "stats"))
	const conns, queries = 4, 5
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", s.ln.Addr().String())
			if err != nil {
				t.Errorf("conn %d dial: %v", i, err)
				return
			}
			defer conn.Close()
			r := bufio.NewReader(conn)
			for q := 0; q < queries; q++ {
				jt := joinTypes[(i+q)%len(joinTypes)]
				fmt.Fprintf(conn, "query pair=d join_type=%s agg=%d tenant=t%d\n", jt, q%2, i)
				line, err := r.ReadString('\n')
				if err != nil {
					t.Errorf("conn %d: %v", i, err)
					return
				}
				fields := strings.Fields(line)
				got := map[string]string{}
				for _, f := range fields[1:] {
					if k, v, ok := strings.Cut(f, "="); ok {
						got[k] = v
					}
				}
				if len(fields) == 0 || fields[0] != "ok" || got["cache"] == "" ||
					got["rows"] != truth[jt].rows || got["keysum"] != truth[jt].keysum {
					t.Errorf("conn %d %s: %q, want rows=%s keysum=%s with a cache= key",
						i, jt, line, truth[jt].rows, truth[jt].keysum)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	_, after := kv(t, c.roundTrip(t, "stats"))
	hits := mustInt(t, after, "build_cache_hits") - mustInt(t, before, "build_cache_hits")
	misses := mustInt(t, after, "build_cache_misses") - mustInt(t, before, "build_cache_misses")
	if hits+misses != conns*queries || misses < 1 || hits < conns*queries-conns {
		t.Fatalf("concurrent wave: hits=%d misses=%d over %d queries", hits, misses, conns*queries)
	}

	// Without a cache the planner's own pick runs: partitioned at fan-out 4.
	plain := startServer(t, serverOptions{})
	pc := dial(t, plain)
	if status, _ := kv(t, pc.roundTrip(t, load)); status != "ok" {
		t.Fatal("pair on the cacheless server failed")
	}
	status, m = kv(t, pc.roundTrip(t, "query pair=d"))
	if status != "ok" || m["fanout"] != "4" || m["strategy"] != "partitioned" ||
		m["rows"] != truth["inner"].rows || m["keysum"] != truth["inner"].keysum {
		t.Fatalf("cacheless default: %v %v, want fanout=4 strategy=partitioned", status, m)
	}
	if _, ok := m["cache"]; ok {
		t.Fatalf("cacheless default query reports a cache: %v", m)
	}
}

// TestServeExplainKeepsNamedFanout: explain=1 and strategy=auto report
// and resolve a query; neither drops the fan-out it names. A named
// fanout=1 streams a build the planner would partition, and a named
// fanout=8 partitions one it would stream, whichever of the two keys
// rides along.
func TestServeExplainKeepsNamedFanout(t *testing.T) {
	s := startServer(t, serverOptions{})
	c := dial(t, s)
	for _, load := range []string{
		"pair name=d build=20000 probe=40000 tuple=40 seed=3",
		"pair name=s build=2000 probe=4000 tuple=40 seed=3",
	} {
		if status, m := kv(t, c.roundTrip(t, load)); status != "ok" {
			t.Fatalf("%s: %v %v", load, status, m)
		}
	}
	for _, tc := range []struct {
		query, strategy, fanout string
	}{
		{"query pair=d fanout=1", "stream", "1"},
		{"query pair=s fanout=8", "partitioned", "8"},
	} {
		for _, extra := range []string{"", " explain=1", " strategy=auto", " strategy=auto explain=1"} {
			q := tc.query + extra
			status, m := kv(t, c.roundTrip(t, q))
			if status != "ok" || m["fanout"] != tc.fanout || m["strategy"] != tc.strategy {
				t.Errorf("%q: %v %v, want fanout=%s strategy=%s", q, status, m, tc.fanout, tc.strategy)
			}
		}
	}
}

// TestServeCacheFollowsTheRule: the pair's cached build side serves the
// queries the strategy rule streams over a prebuilt side, and no other.
// A budgeted query builds under its budget whatever fan-out it names,
// and a forced partitioned query partitions even where the planner
// agrees with it, at fanout=4 by default or at the planner's width
// beside fanout=1.
func TestServeCacheFollowsTheRule(t *testing.T) {
	s := startServer(t, serverOptions{buildCache: 64 << 20})
	c := dial(t, s)
	if status, m := kv(t, c.roundTrip(t, "pair name=d build=20000 probe=40000 tuple=40 seed=3")); status != "ok" {
		t.Fatalf("pair: %v %v", status, m)
	}
	for _, tc := range []struct {
		query, cache, strategy, fanout string
	}{
		{"query pair=d", "miss", "stream", "1"},
		{"query pair=d fanout=1", "hit", "stream", "1"},
		{"query pair=d strategy=stream", "hit", "stream", "1"},
		{"query pair=d strategy=auto explain=1", "hit", "stream", "1"},
		{"query pair=d fanout=8", "", "partitioned", "8"},
		{"query pair=d strategy=partitioned", "", "partitioned", "4"},
		{"query pair=d strategy=partitioned fanout=1", "", "partitioned", "4"},
		{"query pair=d budget=65536", "", "partitioned", "32"},
		{"query pair=d fanout=1 budget=65536", "", "partitioned", "1"},
		{"query pair=d strategy=stream budget=65536", "", "partitioned", "1"},
	} {
		status, m := kv(t, c.roundTrip(t, tc.query))
		if status != "ok" || m["cache"] != tc.cache || m["strategy"] != tc.strategy || m["fanout"] != tc.fanout {
			t.Errorf("%q: %v %v, want cache=%q strategy=%s fanout=%s", tc.query, status, m, tc.cache, tc.strategy, tc.fanout)
		}
	}
	// A budget the partitioned width fits keeps every pair resident.
	if _, m := kv(t, c.roundTrip(t, "query pair=d budget=65536")); m["resident"] != "32" {
		t.Errorf("budgeted default: resident=%s, want 32", m["resident"])
	}
	// A forced stream beside a partitioned fan-out is a usage error.
	if status, m := kv(t, c.roundTrip(t, "query pair=d strategy=stream fanout=8")); status != "err" || m["code"] != "2" {
		t.Errorf("strategy=stream fanout=8: %v %v, want err code=2", status, m)
	}
}
