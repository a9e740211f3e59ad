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

// codeRows collects the table's contents as a per-code multiset: for
// each hash code, the sorted serialized rows (code + key + payload; the
// link excluded). Which slot a code takes, chain order and slab
// placement may all differ between serial and concurrent builds; the
// rows each code's probe sees may not. It also checks the
// slot invariant: every row chained from a slot carries one code, and
// no code owns two slots.
func codeRows(t testing.TB, tbl *RowTable) map[uint32][]string {
	t.Helper()
	out := map[uint32][]string{}
	for s, v := range tbl.dir {
		if v == 0 {
			continue
		}
		code := tbl.codeOf(v & tbl.rowMask)
		if v&^tbl.rowMask != tbl.tag(code) {
			t.Fatalf("slot %d: tag %#x, its code %#x wants %#x", s, v&^tbl.rowMask, code, tbl.tag(code))
		}
		if _, dup := out[code]; dup {
			t.Fatalf("code %#x owns two slots", code)
		}
		var rows []string
		for ref := v & tbl.rowMask; ref != 0; ref = tbl.link(ref) {
			if c := tbl.codeOf(ref); c != code {
				t.Fatalf("slot %d of code %#x chains a row of code %#x", s, code, c)
			}
			off := tbl.rowOff(ref - 1)
			rows = append(rows, string(tbl.rows[off+rowCodeOff:off+uint64(tbl.rowSize)]))
		}
		sort.Strings(rows)
		out[code] = rows
	}
	return out
}

// keysRelation appends one width-byte tuple per key — the key, then the
// tuple's position when there is room — on pages of pageSize bytes, so
// tests choose the page count and what row i must hold.
func keysRelation(a *arena.Arena, keys []uint32, width, pageSize int) *storage.Relation {
	return codedRelation(a, keys, width, pageSize, hash.CodeU32)
}

// codedRelation is keysRelation with key k's hash code codeOf(k).
func codedRelation(a *arena.Arena, keys []uint32, width, pageSize int, codeOf func(uint32) uint32) *storage.Relation {
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
		rel.Append(tup, codeOf(k))
	}
	return rel
}

// requireSameCodes fails unless got holds want's rows, code by code, as
// a multiset, in a directory of the same size.
func requireSameCodes(t testing.TB, got, want *RowTable) {
	t.Helper()
	if len(got.dir) != len(want.dir) {
		t.Fatalf("directory sizes differ: %d vs %d", len(got.dir), len(want.dir))
	}
	g, w := codeRows(t, got), codeRows(t, want)
	if len(g) != len(w) {
		t.Fatalf("%d codes, the serial build has %d", len(g), len(w))
	}
	for code, rows := range w {
		if !slices.Equal(g[code], rows) {
			t.Fatalf("code %#x: %d rows that differ from the serial build's %d", code, len(g[code]), len(rows))
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
// built table must hold exactly the serially built table's rows, code
// by code, as a multiset — and a probe over it must reproduce
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
				requireSameCodes(t, bs.t, serial)

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
	needRows := 16 * (rowHdrSize + 8)
	maxRows := max(rowShrinkFactor*needRows, rowSlabFloor)
	maxDir := 4 * max(rowShrinkFactor*32, rowDirFloor)
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

// TestRowFootprintBoundsTable pins the unit every budget decision is
// sized by to the table it stands for: a table Reset for n rows of a
// width, plus the rows' partition entries, never holds more than
// pairFootprint(n, width), and row i lies where rowOff puts it, as
// link | hash_code | tuple. A layout change that forgets the budget
// arithmetic fails here.
func TestRowFootprintBoundsTable(t *testing.T) {
	for _, width := range []int{4, 8, 40, 64, 100} {
		for _, n := range []int{1, 2, 1000, 1025, 65536} {
			a := arena.New(uint64(n*width + 1<<16))
			es := make([]Entry, n)
			for i := range es {
				addr, err := a.TryAlloc(uint64(width), 1)
				if err != nil {
					t.Fatal(err)
				}
				tup := a.Bytes(addr, uint64(width))
				for b := range tup {
					tup[b] = byte(i + b)
				}
				key := uint32(i / 3) // runs of three duplicate keys: chains longer than one row
				binary.LittleEndian.PutUint32(tup, key)
				es[i] = Entry{Code: hash.CodeU32(key), Key: key, Ref: addr}
			}
			tbl := &RowTable{}
			tbl.Reset(n, width, 0)
			if got, bound := tbl.Bytes()+n*entrySize, pairFootprint(n, width); got > bound {
				t.Fatalf("width %d, n %d: table %d B + entries %d B exceeds pairFootprint %d B",
					width, n, tbl.Bytes(), n*entrySize, bound)
			}
			tbl.BuildSerial(a.Data(), es, Group, DefaultG, DefaultD)
			for i, e := range es {
				off := tbl.rowOff(uint32(i))
				row := tbl.rows[off : off+uint64(rowHdrSize+width)]
				link := binary.LittleEndian.Uint32(row)
				if link > uint32(n) || link != 0 && tbl.codeOf(link) != e.Code {
					t.Fatalf("width %d, n %d: row %d links to row+1 %d, not a row of its code", width, n, i, link)
				}
				tup := a.Bytes(e.Ref, uint64(width))
				if binary.LittleEndian.Uint32(row[4:]) != e.Code || !slices.Equal(row[8:], tup) {
					t.Fatalf("width %d, n %d: row %d does not read link | code | tuple", width, n, i)
				}
			}
		}
	}
}

// FuzzRowTableProbe drives both row-table builds — BuildSerial over
// entries and the one-pass page build — and LookupRows with
// fuzz-derived keys against a map oracle. Width-4 rows: the key is the
// whole tuple. in[0] sets the radix shift (low four bits) and, with bit
// 4 set, narrows the hash codes to 1<<(in[0]>>5) values at each end of
// the code space (narrowCodes): tags then match on most occupied slots,
// runs are long and wrap past the last slot, and tables of one or two
// codes are common.
func FuzzRowTableProbe(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{3, 1, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0})
	f.Add([]byte{8, 0xAA, 0xBB, 0xCC, 0xDD, 0xAA, 0xBB, 0xCC, 0xDD})
	f.Add([]byte{0x90, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 4, 0, 0, 0, 5, 0, 0, 0, 6, 0, 0, 0, 7, 0, 0, 0, 8, 0, 0, 0})
	f.Add([]byte{0x12, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 4, 0, 0, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 1 {
			return
		}
		shift := uint(in[0] & 15)
		codeOf := hash.CodeU32
		if in[0]&16 != 0 {
			codeOf = narrowCodes(1 << (in[0] >> 5))
		}
		keys := fuzzKeys(in[1:])
		nInsert := len(keys) / 2
		if nInsert == 0 {
			return
		}

		a := arena.New(1 << 20)
		rel := codedRelation(a, keys[:nInsert], 4, 64, codeOf)
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
				tbl.LookupRows(codeOf(k), func(row []byte) {
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

// narrowCodes maps keys onto 2m hash codes, m counting up from 0 and m
// down from 0xFFFFFFFF, so that codes share tags, directory runs are
// long and wrap past the last slot, and m = 1 makes two-code tables.
func narrowCodes(m uint32) func(uint32) uint32 {
	return func(k uint32) uint32 {
		c := hash.CodeU32(k) % (2 * m)
		if c < m {
			return c
		}
		return -(c - m + 1)
	}
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
// requires the result to equal the serial build code for code as a row
// multiset. With bit 2 of in[1] set the codes are narrowed as in
// FuzzRowTableProbe, so workers race for the same slots.
func FuzzConcurrentBuildParity(f *testing.F) {
	f.Add([]byte{1, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0})
	f.Add([]byte{4, 2, 0xAA, 0xBB, 0xCC, 0xDD, 0xAA, 0xBB, 0xCC, 0xDD})
	f.Add([]byte{3, 0x45, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 4, 0, 0, 0, 5, 0, 0, 0, 6, 0, 0, 0, 7, 0, 0, 0, 8, 0, 0, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		workers := 1 + int(in[0]&7)
		scheme := []Scheme{Baseline, Group, Pipelined}[int(in[1]&3)%3]
		codeOf := hash.CodeU32
		if in[1]&4 != 0 {
			codeOf = narrowCodes(1 << (in[1] >> 5))
		}
		keys := fuzzKeys(in[2:])
		if len(keys) == 0 {
			return
		}

		a := arena.New(1 << 20)
		rel := codedRelation(a, keys, 4, 64, codeOf)
		serial := &RowTable{}
		serial.Reset(len(keys), 4, 0)
		serial.BuildSerial(a.Data(), Flatten(rel, nil), scheme, DefaultG, DefaultD)

		bs, err := BuildRelation(rel, 4, BuildConfig{Scheme: scheme, Workers: workers})
		if err != nil {
			t.Fatalf("BuildRelation: %v", err)
		}
		requireSameCodes(t, bs.t, serial)
	})
}

// TestRowTableCodeShapes builds tables over hand-made hash codes in the
// shapes open addressing must get right, with both builds — BuildSerial
// and the one-pass page build, plain and CAS publish — and checks
// LookupRows and every probe scheme and join type against a reference
// computed from the entries. Each table has 9-16 rows, so 32 slots: a
// code's home slot is its bits [shift, shift+5), its tag the bits above.
func TestRowTableCodeShapes(t *testing.T) {
	code := func(tag, home uint32, shift uint) uint32 { return (tag<<5 | home) << shift }
	type ck struct{ code, key uint32 }
	for _, tc := range []struct {
		name          string
		shift         uint
		build, probe  []ck
		collide, wrap bool // the probe codes' scans must meet a tag collision, wrap
	}{{
		// B is displaced from slot 3 to 4 by A; C's home is 4, where B's
		// slot carries C's tag; D's home is 5, where C's slot (displaced
		// in turn) carries D's tag, and D is a miss past that collision.
		name:    "tag shared inside a run",
		collide: true,
		build: []ck{
			{code(7, 3, 0), 1}, {code(9, 3, 0), 2}, {code(9, 4, 0), 3}, {code(9, 4, 0), 3},
			{code(7, 3, 0), 4}, {code(1, 20, 0), 5}, {code(2, 21, 0), 6}, {code(9, 3, 0), 2}, {code(3, 22, 0), 7},
		},
		probe: []ck{
			{code(7, 3, 0), 1}, {code(9, 3, 0), 2}, {code(9, 4, 0), 3}, {code(9, 5, 0), 3},
			{code(9, 4, 0), 2}, {code(7, 3, 0), 4}, {code(1, 20, 0), 5}, {code(3, 22, 0), 8},
		},
	}, {
		// Codes that differ only below the radix bits share home and tag.
		name:    "tag shared below the radix bits",
		shift:   3,
		collide: true,
		build: []ck{
			{code(5, 9, 3), 1}, {code(5, 9, 3) | 1, 2}, {code(5, 9, 3) | 2, 3}, {code(5, 9, 3) | 1, 2},
			{code(5, 9, 3), 4}, {code(6, 9, 3), 5}, {code(5, 10, 3), 6}, {code(5, 9, 3) | 7, 7}, {code(4, 0, 3), 8},
		},
		probe: []ck{
			{code(5, 9, 3), 1}, {code(5, 9, 3) | 1, 2}, {code(5, 9, 3) | 2, 3}, {code(5, 9, 3) | 3, 3},
			{code(5, 9, 3) | 1, 1}, {code(6, 9, 3), 5}, {code(5, 10, 3), 6}, {code(5, 11, 3), 6},
		},
	}, {
		// Five codes homed at the last slot fill it and wrap to slots 0-3;
		// E's home is 0, where the second of them carries E's tag.
		name:    "run wraps past the last slot",
		collide: true,
		wrap:    true,
		build: []ck{
			{code(1, 31, 0), 1}, {code(2, 31, 0), 2}, {code(3, 31, 0), 3}, {code(4, 31, 0), 4},
			{code(5, 31, 0), 5}, {code(2, 0, 0), 6}, {code(2, 0, 0), 7}, {code(1, 31, 0), 1}, {code(8, 30, 0), 9},
		},
		probe: []ck{
			{code(1, 31, 0), 1}, {code(3, 31, 0), 3}, {code(5, 31, 0), 5}, {code(2, 0, 0), 7},
			{code(2, 0, 0), 8}, {code(6, 31, 0), 5}, {code(2, 1, 0), 6}, {code(8, 30, 0), 9}, {code(9, 30, 0), 9},
		},
	}, {
		name: "one code",
		build: []ck{
			{0xABCDEF01, 1}, {0xABCDEF01, 2}, {0xABCDEF01, 2}, {0xABCDEF01, 3}, {0xABCDEF01, 4},
			{0xABCDEF01, 5}, {0xABCDEF01, 5}, {0xABCDEF01, 5}, {0xABCDEF01, 6}, {0xABCDEF01, 7},
		},
		probe: []ck{{0xABCDEF01, 2}, {0xABCDEF01, 5}, {0xABCDEF01, 9}, {0xABCDEF02, 2}, {0x0BCDEF01, 1}, {0xABCDEF01, 7}},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			a := arena.New(1 << 20)
			split := func(cks []ck) []Entry {
				codes, keys := make([]uint32, len(cks)), make([]uint32, len(cks))
				for i, c := range cks {
					codes[i], keys[i] = c.code, c.key
				}
				return mkKeyed(t, a, keys, codes)
			}
			build, probe := split(tc.build), split(tc.probe)
			rel := storage.NewRelation(a, storage.KeyPayloadSchema(8), 128)
			for _, e := range build {
				rel.Append(a.Bytes(e.Ref, 8), e.Code)
			}
			if rel.NPages() < 2 {
				t.Fatalf("%d build pages, want several", rel.NPages())
			}
			for _, b := range []string{"BuildSerial", "buildPages", "buildPages/CAS"} {
				tbl := &RowTable{}
				tbl.Reset(len(build), 8, tc.shift)
				if len(tbl.dir) != 32 {
					t.Fatalf("%d slots, the shapes assume 32", len(tbl.dir))
				}
				switch b {
				case "BuildSerial":
					tbl.BuildSerial(a.Data(), build, Group, DefaultG, DefaultD)
				default:
					tbl.buildPages(a.Data(), rel.Pages, rel.PageSize, 0, Pipelined, DefaultG, 2, b == "buildPages/CAS")
				}
				codeRows(t, tbl)
				if collisions, wraps := scanShape(tbl, probe); collisions == 0 && tc.collide || wraps == 0 && tc.wrap {
					t.Fatalf("%s: %d tag collisions and %d wrapping scans: not the shape the case is for", b, collisions, wraps)
				}
				checkTableAgainstReference(t, b, tbl, build, probe)
			}
		})
	}
}

// scanShape counts, over the probe entries' directory scans from their
// home slots, the slots carrying their tag but heading a row of another
// code, and the scans that step past the last slot.
func scanShape(tbl *RowTable, probe []Entry) (collisions, wraps int) {
	for _, p := range probe {
		tg := tbl.tag(p.Code)
		for s := tbl.home(p.Code); tbl.dir[s] != 0; s = (s + 1) & tbl.mask {
			if v := tbl.dir[s]; v&^tbl.rowMask == tg {
				if tbl.codeOf(v&tbl.rowMask) == p.Code {
					break
				}
				collisions++
			}
			if s == tbl.mask {
				wraps++
			}
		}
	}
	return collisions, wraps
}

// checkTableAgainstReference checks tbl, built over build, with
// LookupRows and with every probe scheme and join type probing probe,
// against a nested-loop reference over the entries.
func checkTableAgainstReference(t *testing.T, name string, tbl *RowTable, build, probe []Entry) {
	t.Helper()
	for _, p := range probe {
		var got, want []uint32
		tbl.LookupRows(p.Code, func(row []byte) { got = append(got, binary.LittleEndian.Uint32(row)) })
		for _, b := range build {
			if b.Code == p.Code {
				want = append(want, b.Key)
			}
		}
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: LookupRows(%#x) = keys %v, want %v", name, p.Code, got, want)
		}
	}
	for _, jt := range plan.JoinTypes() {
		wantN, wantSum := referenceJoin(build, probe, jt)
		for _, scheme := range []Scheme{Baseline, Group, Pipelined} {
			p := (&BuildSide{t: tbl}).NewTypedProber(jt, scheme, 4, 2)
			p.ProbeBatch(probe, func([]byte, uint64) {})
			p.EmitUnmatchedBuild(func([]byte, uint64) {})
			if p.NOutput() != wantN || p.KeySum() != wantSum {
				t.Fatalf("%s %v %v: (%d, %d), want (%d, %d)", name, jt, scheme, p.NOutput(), p.KeySum(), wantN, wantSum)
			}
		}
	}
}

// referenceJoin is the nested-loop join of build and probe under jt: a
// pair matches on equal code and key. It returns the output rows and
// their key sum, the checksum the probers report.
func referenceJoin(build, probe []Entry, jt plan.JoinType) (int, uint64) {
	n, sum := 0, uint64(0)
	matched := make([]bool, len(build))
	for _, p := range probe {
		m := 0
		for i, b := range build {
			if b.Code == p.Code && b.Key == p.Key {
				m++
				matched[i] = true
			}
		}
		switch jt {
		case plan.Inner, plan.RightOuter:
			n, sum = n+m, sum+uint64(m)*uint64(p.Key)
		case plan.LeftOuter:
			n, sum = n+max(m, 1), sum+uint64(m)*uint64(p.Key)
		case plan.LeftSemi:
			if m > 0 {
				n, sum = n+1, sum+uint64(p.Key)
			}
		case plan.LeftAnti:
			if m == 0 {
				n, sum = n+1, sum+uint64(p.Key)
			}
		}
	}
	if jt == plan.RightOuter {
		for i, b := range build {
			if !matched[i] {
				n, sum = n+1, sum+uint64(b.Key)
			}
		}
	}
	return n, sum
}
