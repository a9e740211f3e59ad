package spill

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"testing"

	"hashjoin/internal/arena"
)

// FuzzSpillRoundTrip drives a whole partition lifecycle from one fuzzed
// byte string: the input is chopped into tuples whose sizes and contents
// it dictates, spilled through a Writer onto a deliberately tiny page
// size (so a few hundred bytes of input already spans pages), and read
// back through a Reader. Every tuple must come back byte-identical, in
// order, with its hash code.
func FuzzSpillRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint8(16))
	f.Add([]byte("hello spill"), uint8(4))
	f.Add(bytes.Repeat([]byte{0xab}, 3000), uint8(40))
	f.Add(bytes.Repeat([]byte{0x01, 0x02, 0x03}, 500), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, widthSeed uint8) {
		// Derive a tuple width in [1, 200]; anything bigger than the page
		// payload is rejected by Append, which is its own contract.
		width := int(widthSeed)%200 + 1
		m, err := NewManager(Config{
			Dir:      t.TempDir(),
			PageSize: minPageSize,
			A:        arena.New(1 << 20),
		})
		if err != nil {
			t.Fatalf("NewManager: %v", err)
		}
		defer m.Close()

		w, err := m.NewWriter()
		if err != nil {
			t.Fatalf("NewWriter: %v", err)
		}
		var tuples [][]byte
		for off := 0; off+width <= len(data); off += width {
			tup := data[off : off+width]
			code := binary.LittleEndian.Uint32(append(append([]byte{}, tup...), 0, 0, 0, 0))
			if err := w.Append(tup, code); err != nil {
				t.Fatalf("Append(%d bytes): %v", width, err)
			}
			tuples = append(tuples, tup)
		}
		if err := w.Finish(); err != nil {
			t.Fatalf("Finish: %v", err)
		}
		if w.NTuples() != len(tuples) {
			t.Fatalf("NTuples = %d, want %d", w.NTuples(), len(tuples))
		}

		r := w.OpenReader()
		defer r.Close()
		got := 0
		for {
			pg, ok, err := r.Next()
			if err != nil {
				t.Fatalf("Next: %v", err)
			}
			if !ok {
				break
			}
			for i := 0; i < pg.NTuples(); i++ {
				if got >= len(tuples) {
					t.Fatalf("read more tuples than written")
				}
				want := tuples[got]
				tup := pg.Tuple(i)
				if !bytes.Equal(tup, want) {
					t.Fatalf("tuple %d mismatch: %x != %x", got, tup, want)
				}
				wantCode := binary.LittleEndian.Uint32(append(append([]byte{}, want...), 0, 0, 0, 0))
				if code := pg.HashCode(i); code != wantCode {
					t.Fatalf("tuple %d code = %d, want %d", got, code, wantCode)
				}
				got++
			}
			m.Release(pg)
		}
		if got != len(tuples) {
			t.Fatalf("read %d tuples, want %d", got, len(tuples))
		}
	})
}

// FuzzPageCorruption flips one fuzzer-chosen byte anywhere in a spilled
// partition file and asserts the integrity check rejects it: the read
// must fail with a *CorruptPageError naming exactly the page that holds
// the flipped byte, every page before it must decode intact, and no
// page at or after it may ever be delivered (no false accepts).
func FuzzPageCorruption(f *testing.F) {
	f.Add(uint16(300), uint32(0), uint8(0x01))
	f.Add(uint16(50), uint32(700), uint8(0x80))
	f.Add(uint16(1), uint32(20), uint8(0xff))
	f.Fuzz(func(t *testing.T, nTuples uint16, flipOff uint32, xor uint8) {
		if xor == 0 {
			return // not a corruption
		}
		const width = 24
		m, err := NewManager(Config{
			Dir:      t.TempDir(),
			PageSize: minPageSize,
			A:        arena.New(1 << 20),
		})
		if err != nil {
			t.Fatalf("NewManager: %v", err)
		}
		defer m.Close()
		w, err := m.NewWriter()
		if err != nil {
			t.Fatalf("NewWriter: %v", err)
		}
		n := int(nTuples)%1000 + 1
		for i := 0; i < n; i++ {
			if err := w.Append(tupleFor(i, width), uint32(i)); err != nil {
				t.Fatalf("Append: %v", err)
			}
		}
		if err := w.Finish(); err != nil {
			t.Fatalf("Finish: %v", err)
		}

		fileSize := int64(w.NPages()) * int64(minPageSize)
		off := int64(flipOff) % fileSize
		target := int(off / minPageSize)
		fl, err := os.OpenFile(w.Path(), os.O_RDWR, 0)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		b := make([]byte, 1)
		if _, err := fl.ReadAt(b, off); err != nil {
			t.Fatalf("ReadAt: %v", err)
		}
		b[0] ^= xor
		if _, err := fl.WriteAt(b, off); err != nil {
			t.Fatalf("WriteAt: %v", err)
		}
		fl.Close()

		r := w.OpenReader()
		defer r.Close()
		page := 0
		for {
			pg, ok, err := r.Next()
			if err != nil {
				var cpe *CorruptPageError
				if !errors.As(err, &cpe) {
					t.Fatalf("page %d: err = %T %v, want *CorruptPageError", page, err, err)
				}
				if cpe.Page != target {
					t.Fatalf("corruption reported at page %d, flipped byte is in page %d", cpe.Page, target)
				}
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("errors.Is(ErrCorrupt) = false for %v", err)
				}
				return
			}
			if !ok {
				t.Fatalf("partition with a flipped byte in page %d read to completion", target)
			}
			if page >= target {
				t.Fatalf("page %d delivered past the corrupted page %d (false accept)", page, target)
			}
			// Intact prefix pages must hold their original rows.
			for i := 0; i < pg.NTuples(); i++ {
				if pg.HashCode(i) >= uint32(n) {
					t.Fatalf("page %d row %d decoded foreign hash code %d", page, i, pg.HashCode(i))
				}
			}
			m.Release(pg)
			page++
		}
	})
}
