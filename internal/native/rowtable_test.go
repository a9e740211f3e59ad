package native

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"testing"

	"hashjoin/internal/arena"
	"hashjoin/internal/hash"
	"hashjoin/internal/plan"
	"hashjoin/internal/storage"
	"hashjoin/internal/workload"
)

// buildEntriesFor generates a workload into a fresh arena and flattens
// the build side, returning everything a RowTable build needs.
func buildEntriesFor(t testing.TB, spec workload.Spec) (data []byte, build, probe []Entry, pair *workload.Pair) {
	t.Helper()
	a := arena.New(workload.ArenaBytesFor(spec) + 1<<20)
	pair = workload.Generate(a, spec)
	data = a.Data()
	return data, Flatten(pair.Build, nil), Flatten(pair.Probe, nil), pair
}

// bucketRows collects the table's contents as a per-bucket multiset:
// for each directory slot, the sorted serialized rows (code + key +
// payload; next_row_ptr excluded, since chain order and slab placement
// are allowed to differ between serial and concurrent builds).
func bucketRows(t *RowTable) [][]string {
	out := make([][]string, len(t.dir))
	for b := range t.dir {
		var rows []string
		for off := t.dir[b]; off != 0; {
			next := binary.LittleEndian.Uint64(t.rows[off:])
			rows = append(rows, string(t.rows[off+rowNullOff:off+uint64(t.rowSize)]))
			off = next
		}
		sort.Strings(rows)
		out[b] = rows
	}
	return out
}

// keysRelation appends one width-byte tuple per key — the key, then the
// tuple's position when there is room — on pages of pageSize bytes, so
// tests choose the page count and what row i must hold.
func keysRelation(a *arena.Arena, keys []uint32, width, pageSize int) *storage.Relation {
	schema := storage.MustSchema(storage.Column{Name: "key", Type: storage.TypeUint32})
	if width > 4 {
		schema = storage.KeyPayloadSchema(width)
	}
	rel := storage.NewRelation(a, schema, pageSize)
	tup := make([]byte, width)
	for i, k := range keys {
		binary.LittleEndian.PutUint32(tup, k)
		if width >= 8 {
			binary.LittleEndian.PutUint32(tup[4:], uint32(i))
		}
		rel.Append(tup, hash.CodeU32(k))
	}
	return rel
}

// requireSameBuckets fails unless got holds want's rows, bucket by
// bucket, as a multiset.
func requireSameBuckets(t testing.TB, got, want *RowTable) {
	t.Helper()
	g, w := bucketRows(got), bucketRows(want)
	if len(g) != len(w) {
		t.Fatalf("directory sizes differ: %d vs %d", len(g), len(w))
	}
	for b := range w {
		if !slices.Equal(g[b], w[b]) {
			t.Fatalf("bucket %d: %d rows that differ from the serial build's %d", b, len(g[b]), len(w[b]))
		}
	}
}

func TestRowTableLookupOracle(t *testing.T) {
	data, build, probe, _ := buildEntriesFor(t, workload.Spec{
		NBuild: 3000, TupleSize: 20, MatchesPerBuild: 2, PctMatched: 80, Seed: 21, Skew: 64,
	})
	tbl := &RowTable{}
	tbl.Reset(len(build), 20, 0)
	tbl.BuildSerial(data, build, Group, DefaultG, DefaultD)

	// Oracle: key -> number of build tuples carrying it.
	oracle := map[uint32]int{}
	for _, e := range build {
		oracle[e.Key]++
	}
	for _, e := range probe {
		got := 0
		tbl.LookupRows(e.Code, func(row []byte) {
			if binary.LittleEndian.Uint32(row) == e.Key {
				got++
			}
		})
		if got != oracle[e.Key] {
			t.Fatalf("key %#x: %d in-row matches, oracle says %d", e.Key, got, oracle[e.Key])
		}
	}
}

// TestConcurrentBuildMatchesSerial is the parity proof for the CAS
// publish protocol: at every scheme and worker count, the concurrently
// built table must hold exactly the serially built table's rows,
// bucket by bucket, as a multiset — and a probe over it must reproduce
// the workload's ground truth.
func TestConcurrentBuildMatchesSerial(t *testing.T) {
	spec := workload.Spec{NBuild: 8000, TupleSize: 24, MatchesPerBuild: 2, PctMatched: 90, Seed: 13, Skew: 32}
	data, build, probe, pair := buildEntriesFor(t, spec)

	serial := &RowTable{}
	serial.Reset(len(build), 24, 0)
	serial.BuildSerial(data, build, Group, DefaultG, DefaultD)

	for _, scheme := range []Scheme{Baseline, Group, Pipelined} {
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%v/workers%d", scheme, workers), func(t *testing.T) {
				bs, err := BuildRelation(pair.Build, 24, BuildConfig{Scheme: scheme, Workers: workers})
				if err != nil {
					t.Fatalf("BuildRelation: %v", err)
				}
				requireSameBuckets(t, bs.t, serial)

				p := bs.NewTypedProber(plan.Inner, scheme, 0, 0)
				for lo := 0; lo < len(probe); lo += p.G() {
					hi := min(lo+p.G(), len(probe))
					p.ProbeBatch(probe[lo:hi], func([]byte, uint64) {})
				}
				if p.NOutput() != pair.ExpectedMatches || p.KeySum() != pair.KeySum {
					t.Fatalf("probe over concurrent build = (%d, %d), want (%d, %d)",
						p.NOutput(), p.KeySum(), pair.ExpectedMatches, pair.KeySum)
				}
			})
		}
	}
}

// TestBuildSideSharedProbers runs many concurrent Probers over one
// BuildSide — the service's cached-build path — and checks each stream
// independently reproduces the ground truth.
func TestBuildSideSharedProbers(t *testing.T) {
	spec := workload.Spec{NBuild: 5000, TupleSize: 20, MatchesPerBuild: 1, PctMatched: 100, Seed: 29}
	_, _, probe, pair := buildEntriesFor(t, spec)
	bs, err := BuildRelation(pair.Build, 20, BuildConfig{Scheme: Group, Workers: 4})
	if err != nil {
		t.Fatalf("BuildRelation: %v", err)
	}

	const streams = 8
	errs := make(chan error, streams)
	for i := 0; i < streams; i++ {
		scheme := []Scheme{Baseline, Group, Pipelined}[i%3]
		go func(scheme Scheme) {
			p := bs.NewTypedProber(plan.Inner, scheme, 0, 0)
			for lo := 0; lo < len(probe); lo += p.G() {
				hi := min(lo+p.G(), len(probe))
				p.ProbeBatch(probe[lo:hi], func([]byte, uint64) {})
			}
			if p.NOutput() != pair.ExpectedMatches || p.KeySum() != pair.KeySum {
				errs <- fmt.Errorf("%v stream: (%d, %d), want (%d, %d)",
					scheme, p.NOutput(), p.KeySum(), pair.ExpectedMatches, pair.KeySum)
				return
			}
			errs <- nil
		}(scheme)
	}
	for i := 0; i < streams; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestRowTableResetShrink pins the v2 accounting contract: a table that
// held a huge pair releases its slab and directory when Reset for a
// small one, but keeps its allocation when bouncing between similar
// sizes.
func TestRowTableResetShrink(t *testing.T) {
	tbl := &RowTable{}
	tbl.Reset(200_000, 32, 0)
	big := tbl.Bytes()

	// A similar-size Reset must not reallocate (capacity is retained).
	tbl.Reset(180_000, 32, 0)
	if got := tbl.Bytes(); got > big {
		t.Fatalf("similar-size Reset grew the table: %d > %d", got, big)
	}

	tbl.Reset(16, 8, 0)
	small := tbl.Bytes()
	needRows := rowSlabPad + 16*(rowHdrSize+8)
	maxRows := max(rowShrinkFactor*needRows, rowSlabFloor)
	maxDir := 8 * max(rowShrinkFactor*16, rowDirFloor)
	if small > maxRows+maxDir {
		t.Fatalf("small Reset kept %d bytes (slab+dir bound %d): shrink did not release", small, maxRows+maxDir)
	}
	if small >= big/4 {
		t.Fatalf("Bytes after shrink = %d, want far below the large table's %d", small, big)
	}

	// The shrunken table still works.
	a := arena.New(1 << 16)
	addr, err := a.TryAlloc(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(a.Bytes(addr, 4), 7)
	es := []Entry{{Code: hash.CodeU32(7), Key: 7, Ref: addr}}
	tbl.BuildSerial(a.Data(), es, Baseline, DefaultG, DefaultD)
	found := 0
	tbl.LookupRows(es[0].Code, func(row []byte) {
		if binary.LittleEndian.Uint32(row) == 7 {
			found++
		}
	})
	if found != 1 {
		t.Fatalf("lookup after shrink found %d rows, want 1", found)
	}
}

// FuzzRowTableProbe drives both row-table builds — BuildSerial over
// entries and the one-pass page build — and LookupRows with
// fuzz-derived keys against a map oracle. Width-4 rows: the key is the
// whole tuple.
func FuzzRowTableProbe(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{3, 1, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0})
	f.Add([]byte{8, 0xAA, 0xBB, 0xCC, 0xDD, 0xAA, 0xBB, 0xCC, 0xDD})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 1 {
			return
		}
		shift := uint(in[0] & 15)
		keys := fuzzKeys(in[1:])
		nInsert := len(keys) / 2
		if nInsert == 0 {
			return
		}

		a := arena.New(1 << 20)
		rel := keysRelation(a, keys[:nInsert], 4, 64)
		oracle := map[uint32]int{}
		for _, k := range keys[:nInsert] {
			oracle[k]++
		}
		serial, paged := &RowTable{}, &RowTable{}
		serial.Reset(nInsert, 4, shift)
		serial.BuildSerial(a.Data(), Flatten(rel, nil), Pipelined, DefaultG, DefaultD)
		paged.Reset(nInsert, 4, shift)
		paged.buildPages(a.Data(), rel.Pages, rel.PageSize, 0, Pipelined, DefaultG, DefaultD, true)
		for _, k := range keys {
			for name, tbl := range map[string]*RowTable{"BuildSerial": serial, "buildPages": paged} {
				got := 0
				tbl.LookupRows(hash.CodeU32(k), func(row []byte) {
					if binary.LittleEndian.Uint32(row) == k {
						got++
					}
				})
				if got != oracle[k] {
					t.Fatalf("%s, key %#x: %d matches, oracle says %d", name, k, got, oracle[k])
				}
			}
		}
	})
}

// fuzzKeys reads up to 4096 little-endian keys off in.
func fuzzKeys(in []byte) []uint32 {
	keys := make([]uint32, 0, len(in)/4)
	for len(in) >= 4 && len(keys) < 4096 {
		keys = append(keys, binary.LittleEndian.Uint32(in))
		in = in[4:]
	}
	return keys
}

// FuzzConcurrentBuildParity feeds fuzz-derived keys, worker counts, and
// schemes through BuildRelation, over pages of a few tuples each, and
// requires the result to equal the serial build bucket-for-bucket as a
// row multiset.
func FuzzConcurrentBuildParity(f *testing.F) {
	f.Add([]byte{1, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0})
	f.Add([]byte{4, 2, 0xAA, 0xBB, 0xCC, 0xDD, 0xAA, 0xBB, 0xCC, 0xDD})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		workers := 1 + int(in[0]&7)
		scheme := []Scheme{Baseline, Group, Pipelined}[int(in[1])%3]
		keys := fuzzKeys(in[2:])
		if len(keys) == 0 {
			return
		}

		a := arena.New(1 << 20)
		rel := keysRelation(a, keys, 4, 64)
		serial := &RowTable{}
		serial.Reset(len(keys), 4, 0)
		serial.BuildSerial(a.Data(), Flatten(rel, nil), scheme, DefaultG, DefaultD)

		bs, err := BuildRelation(rel, 4, BuildConfig{Scheme: scheme, Workers: workers})
		if err != nil {
			t.Fatalf("BuildRelation: %v", err)
		}
		requireSameBuckets(t, bs.t, serial)
	})
}
