package native

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"hashjoin/internal/arena"
	"hashjoin/internal/hash"
	"hashjoin/internal/plan"
	"hashjoin/internal/spill"
	"hashjoin/internal/storage"
	"hashjoin/internal/workload"
)

// mkEntries writes one 8-byte tuple per code into the arena (a unique
// key in the first 4 bytes) and returns join entries over them. Build
// and probe share the tuples, so entry i on one side matches exactly
// entry i on the other: same code, same key.
func mkEntries(t *testing.T, a *arena.Arena, codes []uint32) []Entry {
	t.Helper()
	keys := make([]uint32, len(codes))
	for i := range keys {
		keys[i] = uint32(1000 + i)
	}
	return mkKeyed(t, a, keys, codes)
}

// mkKeyed is mkEntries with the keys given: entry i is an 8-byte tuple
// with key keys[i] and hash code codes[i].
func mkKeyed(t testing.TB, a *arena.Arena, keys, codes []uint32) []Entry {
	t.Helper()
	es := make([]Entry, len(codes))
	for i, c := range codes {
		addr, err := a.TryAlloc(8, 1)
		if err != nil {
			t.Fatalf("TryAlloc: %v", err)
		}
		binary.LittleEndian.PutUint32(a.Bytes(addr, 4), keys[i])
		es[i] = Entry{Code: c, Key: keys[i], Ref: addr}
	}
	return es
}

// ladderCodes builds the recursion ladder: nZero entries with hash code
// zero plus one entry per low bit (1<<0 .. 1<<7). Each radix level
// splits off exactly one power-of-two code; the zero-code entries are
// inseparable by any split.
func ladderCodes(nZero int) []uint32 {
	codes := make([]uint32, 0, nZero+8)
	for j := 0; j < 8; j++ {
		codes = append(codes, 1<<uint(j))
	}
	for i := 0; i < nZero; i++ {
		codes = append(codes, 0)
	}
	return codes
}

// TestRecursionDepthBoundary drives joinPairBudget to the exact edge of
// maxRepartitionDepth. With 8 zero-code entries the pair first fits the
// budget at depth exactly 8 and must succeed; with 9 it is still over
// budget there, so the NoSpill path must fail with a depth-8
// *BudgetError while the spill path completes the join out of core.
func TestRecursionDepthBoundary(t *testing.T) {
	budget := pairFootprint(8, 8) // 8 zero-code 8-byte entries fit, 9 do not

	t.Run("depth8-succeeds", func(t *testing.T) {
		a := arena.New(1 << 20)
		es := mkEntries(t, a, ladderCodes(8))
		j := newPairJoiner()
		j.data = a.Data()
		j.width, j.t.width = 8, 8
		cfg := Config{Scheme: Group, MemBudget: budget, NoSpill: true}.normalized()
		j.g, j.d = cfg.G, cfg.D
		depth, err := j.joinPairBudget(es, es, 0, cfg, 0)
		if err != nil {
			t.Fatalf("depth-8 pair failed: %v", err)
		}
		if depth != maxRepartitionDepth {
			t.Fatalf("depth = %d, want %d", depth, maxRepartitionDepth)
		}
		if j.nOutput != len(es) {
			t.Fatalf("NOutput = %d, want %d", j.nOutput, len(es))
		}
	})

	t.Run("depth9-errors-without-spill", func(t *testing.T) {
		a := arena.New(1 << 20)
		es := mkEntries(t, a, ladderCodes(9))
		j := newPairJoiner()
		j.data = a.Data()
		j.width, j.t.width = 8, 8
		cfg := Config{Scheme: Group, MemBudget: budget, NoSpill: true}.normalized()
		j.g, j.d = cfg.G, cfg.D
		_, err := j.joinPairBudget(es, es, 0, cfg, 0)
		be, ok := err.(*BudgetError)
		if !ok {
			t.Fatalf("error %T (%v), want *BudgetError", err, err)
		}
		if be.Depth != maxRepartitionDepth {
			t.Fatalf("BudgetError.Depth = %d, want %d", be.Depth, maxRepartitionDepth)
		}
	})

	t.Run("depth9-spills", func(t *testing.T) {
		a := arena.New(1 << 20)
		es := mkEntries(t, a, ladderCodes(9))
		j := newPairJoiner()
		j.data = a.Data()
		j.width, j.t.width = 8, 8
		cfg := Config{Scheme: Group, MemBudget: budget}.normalized()
		j.g, j.d = cfg.G, cfg.D
		dir := t.TempDir()
		j.spill = &spillState{a: a, dir: dir, workers: 2, buildWidth: 8, probeWidth: 8, budget: budget}
		_, err := j.joinPairBudget(es, es, 0, cfg, 0)
		if err != nil {
			t.Fatalf("spill-tier pair failed: %v", err)
		}
		st, pairs, err := j.spill.finish()
		if err != nil {
			t.Fatalf("finish: %v", err)
		}
		if pairs != 1 || st.BytesWritten == 0 || st.BytesRead == 0 {
			t.Fatalf("spill stats = %+v pairs=%d, want one spilled pair with I/O", st, pairs)
		}
		if j.nOutput != len(es) {
			t.Fatalf("NOutput = %d, want %d", j.nOutput, len(es))
		}
		ents, rerr := os.ReadDir(dir)
		if rerr != nil || len(ents) != 0 {
			t.Fatalf("spill dir not cleaned up: %v %v", ents, rerr)
		}
	})
}

// TestJoinSpillParity runs a join whose single shared key defeats radix
// partitioning entirely, under a budget that forces the out-of-core
// tier, and checks the result tuple-for-tuple against the unbudgeted
// in-memory join for every scheme.
func TestJoinSpillParity(t *testing.T) {
	spec := workload.Spec{NBuild: 2000, TupleSize: 20, MatchesPerBuild: 1, PctMatched: 100, Seed: 17, Skew: 2000}
	for _, scheme := range []Scheme{Baseline, Group, Pipelined} {
		t.Run(scheme.String(), func(t *testing.T) {
			a := arena.New(workload.ArenaBytesFor(spec) + 1<<20)
			pair := workload.Generate(a, spec)
			want, err := Join(pair.Build, pair.Probe, Config{Scheme: scheme, Workers: 2})
			if err != nil {
				t.Fatalf("in-memory join: %v", err)
			}

			dir := t.TempDir()
			before := runtime.NumGoroutine()
			got, err := Join(pair.Build, pair.Probe, Config{
				Scheme: scheme, Fanout: 4, MemBudget: 4 << 10, Workers: 4, SpillDir: dir,
			})
			if err != nil {
				t.Fatalf("spill join: %v", err)
			}
			if got.NOutput != want.NOutput || got.KeySum != want.KeySum {
				t.Fatalf("spill join = (%d, %d), in-memory = (%d, %d)",
					got.NOutput, got.KeySum, want.NOutput, want.KeySum)
			}
			if got.SpilledPartitions == 0 || got.SpillBytesWritten == 0 || got.SpillBytesRead == 0 {
				t.Fatalf("budgeted skew join did not spill: %+v", got)
			}
			// The probe partition is re-read once per build chunk; total
			// reads can exceed writes but never fall below them.
			if got.SpillBytesRead < got.SpillBytesWritten {
				t.Fatalf("read %d bytes < wrote %d", got.SpillBytesRead, got.SpillBytesWritten)
			}
			ents, rerr := os.ReadDir(dir)
			if rerr != nil || len(ents) != 0 {
				t.Fatalf("orphaned spill files: %v %v", ents, rerr)
			}
			waitForGoroutines(t, before)
		})
	}
}

// TestJoinSpillRepeatedNoOrphans re-runs a spilling join on one Joiner
// and checks that no temp files accumulate across runs — the Manager is
// created and torn down per Join call.
func TestJoinSpillRepeatedNoOrphans(t *testing.T) {
	spec := workload.Spec{NBuild: 1000, TupleSize: 20, MatchesPerBuild: 1, PctMatched: 100, Seed: 5, Skew: 1000}
	a := arena.New(workload.ArenaBytesFor(spec) + 1<<20)
	pair := workload.Generate(a, spec)
	dir := t.TempDir()
	jn := NewJoiner()
	mark := a.Used()
	for i := 0; i < 3; i++ {
		a.Truncate(mark) // reclaim the previous run's buffer pool
		r, err := jn.Join(pair.Build, pair.Probe,
			Config{Scheme: Group, Fanout: 2, MemBudget: 4 << 10, Workers: 2, SpillDir: dir})
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if r.SpilledPartitions == 0 {
			t.Fatalf("run %d did not spill", i)
		}
		ents, rerr := os.ReadDir(dir)
		if rerr != nil || len(ents) != 0 {
			t.Fatalf("run %d left files behind: %v %v", i, ents, rerr)
		}
	}
}

// mkWide allocates n width-byte tuples back to back (so cache lines
// straddle tuples) with distinct keys and codes, and returns their
// entries in a fixed shuffled order: each tuple the write loop copies
// sits on a line the previous copy did not touch.
func mkWide(t testing.TB, a *arena.Arena, n, width int) []Entry {
	t.Helper()
	es := make([]Entry, n)
	for i := range es {
		addr, err := a.TryAlloc(uint64(width), 1)
		if err != nil {
			t.Fatalf("TryAlloc: %v", err)
		}
		b := a.Bytes(addr, uint64(width))
		for k := range b {
			b[k] = byte(i + k)
		}
		binary.LittleEndian.PutUint32(b, uint32(i))
		es[i] = Entry{Code: uint32(i) * 2654435761, Key: uint32(i), Ref: addr}
	}
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(n, func(i, j int) { es[i], es[j] = es[j], es[i] })
	return es
}

// TestSpillWriteSchemesIdentical writes one side in shuffled order
// under every scheme, at the default and at odd G/D, and checks the
// partition files are byte for byte the same: the write loop's
// prefetches are hints and move no byte. The pool outnumbers the pages,
// so no page buffer is reused and a page's unused bytes are zero.
func TestSpillWriteSchemesIdentical(t *testing.T) {
	const n, width = 1500, 100
	for _, gd := range [][2]int{{DefaultG, DefaultD}, {7, 3}} {
		var want []byte
		for _, scheme := range []Scheme{Baseline, Group, Pipelined} {
			a := arena.New(4 << 20)
			es := mkWide(t, a, n, width)
			m, err := spill.NewManager(spill.Config{Dir: t.TempDir(), PageSize: 4096, PoolPages: 64, A: a})
			if err != nil {
				t.Fatalf("NewManager: %v", err)
			}
			sp := &spillState{scheme: scheme, g: gd[0], d: gd[1]}
			w, err := sp.spillPartition(m, a.Data(), es, width)
			if err != nil {
				t.Fatalf("%v G=%d D=%d: spillPartition: %v", scheme, gd[0], gd[1], err)
			}
			if w.NPages() >= 64 {
				t.Fatalf("%d pages reuse pool buffers; grow PoolPages", w.NPages())
			}
			got, err := os.ReadFile(w.Path())
			if err != nil {
				t.Fatalf("reading the partition: %v", err)
			}
			if err := m.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if want == nil {
				want = got
				continue
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%v G=%d D=%d: partition file differs from baseline's (%d vs %d bytes)",
					scheme, gd[0], gd[1], len(got), len(want))
			}
		}
	}
}

// BenchmarkSpillPartitionWrite times spillPartition over 200k 100-byte
// tuples in shuffled order under each scheme; ns/tuple is the copy plus
// its share of page encoding.
func BenchmarkSpillPartitionWrite(b *testing.B) {
	const n, width = 200_000, 100
	a := arena.New(n*width + 8<<20)
	es := mkWide(b, a, n, width)
	mark := a.Used()
	dir := b.TempDir()
	for _, bc := range []struct {
		name   string
		scheme Scheme
	}{{"Baseline", Baseline}, {"Group", Group}, {"Pipelined", Pipelined}} {
		b.Run(bc.name, func(b *testing.B) {
			sp := &spillState{scheme: bc.scheme, g: DefaultG, d: DefaultD}
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				a.Truncate(mark)
				m, err := spill.NewManager(spill.Config{Dir: dir, A: a})
				if err != nil {
					b.Fatalf("NewManager: %v", err)
				}
				b.StartTimer()
				_, err = sp.spillPartition(m, a.Data(), es, width)
				b.StopTimer()
				if err != nil {
					b.Fatalf("spillPartition: %v", err)
				}
				if err := m.Close(); err != nil {
					b.Fatalf("Close: %v", err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/tuple")
		})
	}
}

// emission is one sink call: the build row's key (-1 for a null build
// side) and the probe row's key (-1 for an unmatched build row). Keys,
// not addresses: a spilled row is emitted from its pool page.
type emission struct {
	build, probe int64
}

// pairRun is what one joinPairHybrid call produced.
type pairRun struct {
	emits   []emission
	nOutput int
	keySum  uint64
	depth   int
	spilled int
}

// runPair joins build with probe through joinPairHybrid, the pair entry
// of a partitioned join, under cfg's budget at claim time (as joinPairs
// samples it), with the spill tier armed when withSpill is set,
// recording every emission in sorted order.
func runPair(t *testing.T, a *arena.Arena, build, probe []Entry, cfg Config, withSpill bool) pairRun {
	t.Helper()
	cfg = cfg.normalized()
	j := newPairJoiner()
	j.data, j.width, j.t.width, j.joinType = a.Data(), 8, 8, cfg.JoinType
	j.g, j.d = cfg.G, cfg.D
	var r pairRun
	j.sink = func(b []byte, ref uint64) {
		e := emission{-1, -1}
		if b != nil {
			e.build = int64(binary.LittleEndian.Uint32(b))
		}
		if ref != 0 {
			e.probe = int64(binary.LittleEndian.Uint32(j.data[ref-arena.Base:]))
		}
		r.emits = append(r.emits, e)
	}
	if withSpill {
		j.spill = &spillState{a: a, dir: t.TempDir(), workers: 2, buildWidth: 8, probeWidth: 8,
			budget: cfg.MemBudget, pageSize: 4096, scheme: cfg.Scheme, g: cfg.G, d: cfg.D}
	}
	claim := cfg
	claim.MemBudget = effectiveBudget(cfg)
	depth, err := j.joinPairHybrid(build, probe, 0, claim)
	if err != nil {
		t.Fatalf("joinPairHybrid: %v", err)
	}
	if withSpill {
		_, pairs, err := j.spill.finish()
		if err != nil {
			t.Fatalf("spill finish: %v", err)
		}
		r.spilled = pairs
	}
	slices.SortFunc(r.emits, func(x, y emission) int {
		return cmp.Or(cmp.Compare(x.build, y.build), cmp.Compare(x.probe, y.probe))
	})
	r.nOutput, r.keySum, r.depth = j.nOutput, j.keySum, depth
	return r
}

// pressures are the two budget signals the spill parity tests run
// under, labelled hybrid=false and hybrid=true: none, and a pressure
// signal (Config.BudgetNow) that halves MemBudget at every pair claim,
// the input the hybrid policy demotes pairs on.
var pressures = []bool{false, true}

// pressed returns cfg under the halving pressure signal when on is set.
func pressed(cfg Config, on bool) Config {
	if on {
		half := cfg.MemBudget / 2
		cfg.BudgetNow = func() int { return half }
	}
	return cfg
}

// TestIrreduciblePairSpillsAtOnce drives the pair entry over a pair
// whose build side is one hash code, and over a partition holding two
// such codes, under every join type, scheme and pressure. Each hot
// code has 24 build rows under an 8-row budget: 16 of one key and 8 of
// another that collides on the code. The probe side holds matching
// rows, a colliding key that matches nothing, and rows of 40 codes the
// build side lacks, each with a key of its own. Both pairs must reach
// the spill tier at depth 0, one spilled sub-pair per hot code; the
// output must equal the unbudgeted join's, emission for emission; and
// each probe row of a missing code must be emitted exactly once by the
// types that emit unmatched probe rows, and never by the others.
func TestIrreduciblePairSpillsAtOnce(t *testing.T) {
	shapes := []struct {
		name string
		hot  []uint32
	}{
		{"one-code", []uint32{0x5a5a0003}},
		{"two-code", []uint32{0x5a5a0010, 0x5a5a0011}},
	}
	for _, sh := range shapes {
		for _, jt := range plan.JoinTypes() {
			for _, scheme := range []Scheme{Baseline, Group, Pipelined} {
				for _, pressure := range pressures {
					t.Run(fmt.Sprintf("%s/%v/%v/hybrid=%v", sh.name, jt, scheme, pressure), func(t *testing.T) {
						a := arena.New(1 << 20)
						var bKeys, bCodes, pKeys, pCodes []uint32
						for h, c := range sh.hot {
							k := uint32(100 + 10*h)
							for i := 0; i < 24; i++ {
								bKeys, bCodes = append(bKeys, k+uint32(i%3/2)), append(bCodes, c)
							}
							pKeys = append(pKeys, k, k+2, k, k+1, k)
							pCodes = append(pCodes, c, c, c, c, c)
						}
						for i := 0; i < 40; i++ {
							pKeys, pCodes = append(pKeys, uint32(5000+i)), append(pCodes, uint32(i)*0x9e3779b1)
						}
						build := mkKeyed(t, a, bKeys, bCodes)
						probe := mkKeyed(t, a, pKeys, pCodes)
						rand.New(rand.NewSource(3)).Shuffle(len(probe), func(i, j int) {
							probe[i], probe[j] = probe[j], probe[i]
						})

						want := runPair(t, a, build, probe,
							Config{JoinType: jt, Scheme: scheme, MemBudget: 1 << 30, NoSpill: true}, false)
						got := runPair(t, a, build, probe, pressed(
							Config{JoinType: jt, Scheme: scheme, MemBudget: pairFootprint(8, 8)}, pressure), true)
						if got.depth != 0 || got.spilled != len(sh.hot) {
							t.Fatalf("depth %d with %d spilled pairs, want depth 0 with %d",
								got.depth, got.spilled, len(sh.hot))
						}
						if got.nOutput != want.nOutput || got.keySum != want.keySum || !slices.Equal(got.emits, want.emits) {
							t.Fatalf("budgeted join = (%d, %d) %v,\nunbudgeted = (%d, %d) %v",
								got.nOutput, got.keySum, got.emits, want.nOutput, want.keySum, want.emits)
						}
						wantOnce := 0
						if jt == plan.LeftOuter || jt == plan.LeftAnti {
							wantOnce = 1
						}
						for _, e := range probe {
							if slices.Contains(sh.hot, e.Code) {
								continue
							}
							n := 0
							for _, em := range got.emits {
								if em.probe == int64(e.Key) {
									n++
								}
							}
							if n != wantOnce {
								t.Fatalf("probe row of missing code %#x emitted %d times, want %d", e.Code, n, wantOnce)
							}
						}
					})
				}
			}
		}
	}
}

// TestSpillLeafKeepsTableAcrossPairs joins two one-code victims in turn
// on one pair joiner. Each builds a budget-sized resident prefix and
// spills a five-row remainder, whose chunk table needs far under a
// quarter of the prefix's: that short last chunk must not free the slab
// and directory the next victim's prefix needs again.
func TestSpillLeafKeepsTableAcrossPairs(t *testing.T) {
	const resident, rest = 1000, 5
	a := arena.New(1 << 20)
	cfg := Config{Scheme: Group, MemBudget: resident * rowFootprint(8)}.normalized()
	j := newPairJoiner()
	j.data, j.width, j.t.width, j.g, j.d = a.Data(), 8, 8, cfg.G, cfg.D
	j.spill = &spillState{a: a, dir: t.TempDir(), workers: 2, buildWidth: 8, probeWidth: 8,
		budget: cfg.MemBudget, pageSize: 4096, scheme: cfg.Scheme, g: cfg.G, d: cfg.D}
	var slab *byte
	var dir *uint32
	for v, code := range []uint32{0x5a5a0003, 0x6b6b0004} {
		key := uint32(100 + v)
		var bKeys, bCodes []uint32
		for i := 0; i < resident+rest; i++ {
			bKeys, bCodes = append(bKeys, key), append(bCodes, code)
		}
		build := mkKeyed(t, a, bKeys, bCodes)
		probe := mkKeyed(t, a, []uint32{key, key}, []uint32{code, code})
		before := j.nOutput
		if _, err := j.joinPairHybrid(build, probe, 0, cfg); err != nil {
			t.Fatalf("victim %d: %v", v, err)
		}
		if got := j.nOutput - before; got != 2*(resident+rest) {
			t.Fatalf("victim %d: %d matches, want %d", v, got, 2*(resident+rest))
		}
		if v == 0 {
			slab, dir = &j.t.rows[0], &j.t.dir[0]
		} else if &j.t.rows[0] != slab || &j.t.dir[0] != dir {
			t.Fatal("the second victim allocated a new slab or directory: the first one's short last chunk released them")
		}
	}
	if _, pairs, err := j.spill.finish(); err != nil || pairs != 2 {
		t.Fatalf("spill finish: %d spilled pairs, %v; want 2", pairs, err)
	}
}

// TestSpilledPairsRunConcurrently joins two one-code pairs on two
// workers through JoinStream. Each worker's sink, at its first match,
// waits until the other worker has matched too. A one-code pair's
// matches all come from inside the spill tier's chunk loop, so the join
// gets past that wait only if both spilled pairs are in flight at once;
// a tier that joins one spilled pair at a time times out instead.
func TestSpilledPairsRunConcurrently(t *testing.T) {
	a := arena.New(4 << 20)
	build := storage.NewRelation(a, storage.KeyPayloadSchema(8), 4096)
	probe := storage.NewRelation(a, storage.KeyPayloadSchema(8), 4096)
	// Two keys whose codes differ in the lowest bit: fan-out 2 puts them
	// in different partitions.
	k0, k1 := uint32(1), uint32(2)
	for (hash.CodeU32(k0)^hash.CodeU32(k1))&1 == 0 {
		k1++
	}
	tup := make([]byte, 8)
	for _, k := range []uint32{k0, k1} {
		binary.LittleEndian.PutUint32(tup, k)
		for i := 0; i < 64; i++ {
			build.Append(tup, hash.CodeU32(k))
		}
		for i := 0; i < 4; i++ {
			probe.Append(tup, hash.CodeU32(k))
		}
	}

	var arrived atomic.Int32
	both := make(chan struct{}) // closed by the second worker to match
	var timedOut atomic.Bool
	sinkFor := func(int) func([]byte, uint64) {
		first := true
		return func([]byte, uint64) {
			if !first {
				return
			}
			first = false
			if arrived.Add(1) == 2 {
				close(both)
			}
			select {
			case <-both:
			case <-time.After(10 * time.Second):
				timedOut.Store(true)
			}
		}
	}
	r, err := NewJoiner().JoinStream(build, probe, Config{
		Scheme: Group, Fanout: 2, Workers: 2, MemBudget: pairFootprint(8, 8), SpillDir: t.TempDir(),
	}, 8, sinkFor)
	if err != nil {
		t.Fatalf("JoinStream: %v", err)
	}
	if timedOut.Load() {
		t.Fatal("the two spilled pairs never ran at once")
	}
	if r.SpilledPartitions != 2 || r.RecursionDepth != 0 || r.NOutput != 2*64*4 {
		t.Fatalf("spilled %d pairs at depth %d with %d rows, want 2 at depth 0 with %d",
			r.SpilledPartitions, r.RecursionDepth, r.NOutput, 2*64*4)
	}
}

// TestSpillChunkFitsBudget joins a one-code build side of 100-byte
// tuples out of core through JoinStream at row widths 4, 8 and 100, and
// checks every chunk from inside the sink its probe emits into: its
// pages carry the row width, and its pinned pages and table fit the
// budget — or it pins one page, when a single page is over it. A
// chunkPages that counted the whole tuple would pin about twice the
// budget at width 4. The resident prefix before the chunks still charges
// whole tuples.
func TestSpillChunkFitsBudget(t *testing.T) {
	const tuple, page, nBuild, nProbe = 100, 4096, 5000, 2
	a := arena.New(8 << 20)
	build := storage.NewRelation(a, storage.KeyPayloadSchema(tuple), 8<<10)
	probe := storage.NewRelation(a, storage.KeyPayloadSchema(tuple), 8<<10)
	tup := make([]byte, tuple)
	binary.LittleEndian.PutUint32(tup, 7)
	for i := 0; i < nBuild; i++ {
		build.Append(tup, hash.CodeU32(7))
	}
	for i := 0; i < nProbe; i++ {
		probe.Append(tup, hash.CodeU32(7))
	}
	for _, budget := range []int{64 << 10, 8 << 10} {
		for _, width := range []int{4, 8, tuple} {
			jn := NewJoiner()
			var chunkRows, maxPages int
			var bad string
			sinkFor := func(w int) func([]byte, uint64) {
				j := jn.workers[w]
				return func(b []byte, _ uint64) {
					if len(b) != width && bad == "" {
						bad = fmt.Sprintf("a %d-byte build row", len(b))
					}
					pages := len(j.spillPinned)
					if pages == 0 {
						return // the resident prefix
					}
					chunkRows++
					maxPages = max(maxPages, pages)
					if n := j.spillPinned[0].Width(); n != width && bad == "" {
						bad = fmt.Sprintf("a page of %d-byte tuples", n)
					}
					foot := pages*page + j.t.Bytes()
					if foot > budget && pages > 1 && bad == "" {
						bad = fmt.Sprintf("a chunk of %d pages and %d rows pinning %d B", pages, j.t.NRows(), foot)
					}
				}
			}
			r, err := jn.JoinStream(build, probe, Config{Scheme: Group, Fanout: 1, Workers: 1,
				MemBudget: budget, SpillPageSize: page, SpillDir: t.TempDir()}, width, sinkFor)
			if err != nil {
				t.Fatalf("budget %d width %d: %v", budget, width, err)
			}
			if bad != "" {
				t.Errorf("budget %d width %d: %s", budget, width, bad)
			}
			resident := budget / rowFootprint(tuple)
			if r.SpilledPartitions != 1 || r.NOutput != nBuild*nProbe || chunkRows != (nBuild-resident)*nProbe {
				t.Errorf("budget %d width %d: %d spilled pairs, %d rows, %d from chunks; want 1, %d, %d",
					budget, width, r.SpilledPartitions, r.NOutput, chunkRows, nBuild*nProbe, (nBuild-resident)*nProbe)
			}
			t.Logf("budget %d width %d: chunks of up to %d pages", budget, width, maxPages)
		}
	}
}

// rowPair is one emission as tuple bytes: the build row's key and
// payload ("" for a null build side) and the probe tuple ("" for an
// unmatched build row). Bytes, not addresses: a spilled row is emitted
// from its pool page.
type rowPair struct {
	build, probe string
}

// TestSpillConcurrentParity joins a skewed pair whose hot keys spill
// from several partitions on 1, 2 and 4 workers, under every join type,
// scheme and pressure, with 512-byte spill pages so each chunk
// pins more than one page of a pool sized per worker. The output must
// equal the unbudgeted join's, row for row, and the spill I/O must be
// the same on every worker count: running spilled pairs at once changes
// when they run, not what they write and read.
func TestSpillConcurrentParity(t *testing.T) {
	spec := workload.Spec{NBuild: 600, TupleSize: 20, Skew: 150,
		MatchRate: 0.4, NProbe: 600, Seed: 13}
	a := arena.New(workload.ArenaBytesFor(spec) + 8<<20)
	pair := workload.Generate(a, spec)
	data, width := a.Data(), pair.Probe.Schema.FixedWidth()
	run := func(t *testing.T, cfg Config) ([]rowPair, Result) {
		t.Helper()
		rows := make([][]rowPair, max(cfg.Workers, 1))
		r, err := NewJoiner().JoinStream(pair.Build, pair.Probe, cfg, width, func(w int) func([]byte, uint64) {
			return func(b []byte, ref uint64) {
				var p rowPair
				p.build = string(b)
				if ref != 0 {
					p.probe = string(data[ref-arena.Base : ref-arena.Base+uint64(width)])
				}
				rows[w] = append(rows[w], p)
			}
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", cfg.Workers, err)
		}
		all := slices.Concat(rows...)
		slices.SortFunc(all, func(x, y rowPair) int {
			return cmp.Or(cmp.Compare(x.build, y.build), cmp.Compare(x.probe, y.probe))
		})
		return all, r
	}
	for _, jt := range plan.JoinTypes() {
		want, _ := run(t, Config{JoinType: jt, Workers: 1})
		for _, scheme := range []Scheme{Baseline, Group, Pipelined} {
			for _, pressure := range pressures {
				t.Run(fmt.Sprintf("%v/%v/hybrid=%v", jt, scheme, pressure), func(t *testing.T) {
					var first Result
					for _, workers := range []int{1, 2, 4} {
						got, r := run(t, pressed(Config{
							JoinType: jt, Scheme: scheme, Fanout: 4, MemBudget: 4 << 10, Workers: workers,
							SpillPageSize: 512, SpillDir: t.TempDir(),
						}, pressure))
						if !slices.Equal(got, want) {
							t.Fatalf("workers=%d: %d rows differ from the unbudgeted join's %d", workers, len(got), len(want))
						}
						if r.SpilledPartitions == 0 {
							t.Fatalf("workers=%d: nothing reached the spill tier", workers)
						}
						if workers == 1 {
							first = r
							continue
						}
						if r.SpilledPartitions != first.SpilledPartitions ||
							r.SpillBytesWritten != first.SpillBytesWritten || r.SpillBytesRead != first.SpillBytesRead {
							t.Fatalf("workers=%d: %d pairs, %d B written, %d B read; one worker: %d, %d, %d",
								workers, r.SpilledPartitions, r.SpillBytesWritten, r.SpillBytesRead,
								first.SpilledPartitions, first.SpillBytesWritten, first.SpillBytesRead)
						}
					}
				})
			}
		}
	}
}

// TestSpillPoolBytesBoundsPool checks that the page pool a join's
// Manager is sized for never exceeds what SpillPoolBytes planned for the
// join's config, over worker counts, forced and derived fan-outs, page
// sizes and budgets: admission plans before the fan-out is known, the
// pool is sized after. The pool grows with the workers that can each
// run a spilled pair, and the plan with it.
func TestSpillPoolBytesBoundsPool(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, 16} {
		for _, fanout := range []int{0, 1, 3, 8, 64} {
			for _, page := range []int{0, 4096, 63 << 10} {
				for _, budget := range []int{4 << 10, 128 << 10, 64 << 20} {
					cfg := Config{Workers: workers, Fanout: fanout, SpillPageSize: page, MemBudget: budget}
					planned := SpillPoolBytes(cfg)
					n := cfg.normalized()
					fanouts := []int{n.Fanout}
					if fanout == 0 { // derived from the relations at run time
						fanouts = []int{1, 2, 8, 1 << 10}
					}
					for _, f := range fanouts {
						sp := &spillState{workers: n.spillWorkers(), slots: n.morselSlots(f),
							pageSize: n.spillPage(), budget: budget, buildWidth: 4}
						if pool := uint64(sp.poolPages() * sp.pageSize); pool > planned {
							t.Errorf("%+v at fan-out %d: pool %d B over the planned %d B", cfg, f, pool, planned)
						}
					}
				}
			}
		}
	}
	one := SpillPoolBytes(Config{Workers: 1, MemBudget: 128 << 10})
	four := SpillPoolBytes(Config{Workers: 4, MemBudget: 128 << 10})
	if four <= one {
		t.Fatalf("SpillPoolBytes does not grow with the workers: %d at one, %d at four", one, four)
	}
}

// TestSpillChunkTableMatchesBuildSerial builds a chunk table from row
// pages — the entries' tuples spilled at the table's width onto
// 512-byte pages, read back and pinned — and a table with
// RowTable.BuildSerial from the same entries, under every scheme at
// widths 4, 8 and 100. Every code must chain the same rows in the same
// order in both. One code's 40 rows, under two keys, span several
// pages, so its chain crosses a page boundary; the other codes are
// few-row chains of eleven keys.
func TestSpillChunkTableMatchesBuildSerial(t *testing.T) {
	const tuple, n, long = 100, 120, 0x5a5a0003
	a := arena.New(1 << 20)
	es := make([]Entry, n)
	for i := range es {
		addr, err := a.TryAlloc(tuple, 1)
		if err != nil {
			t.Fatalf("TryAlloc: %v", err)
		}
		b := a.Bytes(addr, tuple)
		key := uint32(i % 11)
		if i%3 == 0 {
			key = uint32(500 + i%2)
		}
		binary.LittleEndian.PutUint32(b, key)
		for k := 4; k < tuple; k++ {
			b[k] = byte(i + k)
		}
		code := hash.CodeU32(key)
		if key >= 500 {
			code = long
		}
		es[i] = Entry{Code: code, Key: key, Ref: addr}
	}
	for _, width := range []int{4, 8, tuple} {
		for _, scheme := range []Scheme{Baseline, Group, Pipelined} {
			cfg := Config{Scheme: scheme}.normalized()
			m, err := spill.NewManager(spill.Config{Dir: t.TempDir(), PageSize: 512, PoolPages: 64, A: a})
			if err != nil {
				t.Fatalf("NewManager: %v", err)
			}
			w, err := m.NewWriter()
			if err != nil {
				t.Fatalf("NewWriter: %v", err)
			}
			for _, e := range es {
				if err := w.Append(a.Bytes(e.Ref, uint64(width)), e.Code); err != nil {
					t.Fatalf("Append: %v", err)
				}
			}
			if err := w.Finish(); err != nil {
				t.Fatalf("Finish: %v", err)
			}
			j := newPairJoiner()
			j.data, j.t.width, j.g, j.d = a.Data(), width, cfg.G, cfg.D
			r := w.OpenReader()
			rows, longPages := 0, 0
			for {
				pg, ok, err := r.Next()
				if err != nil {
					t.Fatalf("Next: %v", err)
				}
				if !ok {
					break
				}
				j.spillPinned = append(j.spillPinned, pg)
				rows += pg.NTuples()
				for i := 0; i < pg.NTuples(); i++ {
					if pg.HashCode(i) == long {
						longPages++
						break
					}
				}
			}
			r.Close()
			if longPages < 2 {
				t.Fatalf("width %d: the long chain sits on %d page(s), want a page boundary inside it", width, longPages)
			}
			j.buildChunk(rows, 0)
			j.releasePinned(m)

			var want RowTable
			want.Reset(n, width, 0)
			want.BuildSerial(a.Data(), es, scheme, cfg.G, cfg.D)
			if j.t.NRows() != n {
				t.Fatalf("width %d %v: chunk table of %d rows, want %d", width, scheme, j.t.NRows(), n)
			}
			for _, e := range es {
				var got, exp []string
				j.t.LookupRows(e.Code, func(row []byte) { got = append(got, string(row)) })
				want.LookupRows(e.Code, func(row []byte) { exp = append(exp, string(row)) })
				if !slices.Equal(got, exp) {
					t.Fatalf("width %d %v: code %#x chains %d rows %x, BuildSerial %d rows %x",
						width, scheme, e.Code, len(got), got, len(exp), exp)
				}
			}
			if err := m.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
		}
	}
}
