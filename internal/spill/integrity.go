package spill

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync/atomic"
	"syscall"
	"time"
)

// A spill page is a 16-byte integrity header, a row count and a row
// width, then packed fixed-width rows:
//
//	[0:4)   magic "HJSP"
//	[4:6)   format version (2: row pages)
//	[6:8)   reserved (zero)
//	[8:12)  page index within the partition file
//	[12:16) CRC32C (Castagnoli) over the rest of the page
//	[16:20) row count n
//	[20:24) tuple width w, fixed per partition by its first Append
//	[24:)   n rows of RowHeaderSize+w bytes: link (4, zero) | hash code (4) | tuple (w)
//
// A row is exactly the native row table's row (internal/native
// rowtable.go) with its link zeroed, so a spilled build page read back
// is a segment of a chunk table's slab: the join copies its row block
// in one go and only links the rows. The hash code is the one memoized
// in the partition phase (section 7.1), carried back without
// recomputation. Version 1 was a slotted page with a slot array; a
// version-1 page is refused like any other corruption, never decoded.
//
// The header is sealed by the write-behind worker just before the page
// hits disk (overlapping the checksum with the next page's encoding) and
// verified by the Reader before the rows are read, so a torn write,
// bit flip, or misplaced page surfaces as a typed *CorruptPageError
// instead of garbage join output.
const (
	// HeaderSize is the per-page integrity header, carved out of the
	// page before the row count.
	HeaderSize = 16
	// RowHeaderSize is the bytes each row carries ahead of its tuple:
	// link (always zero on disk) and hash code.
	RowHeaderSize = 8
	// RowCodeOffset is the hash code's offset within a row; the link
	// is at 0 and the tuple at RowHeaderSize.
	RowCodeOffset = 4

	pageRowsOff = HeaderSize + 8 // row count and width, then the rows

	pageMagic   = 0x48_4A_53_50 // "HJSP"
	pageVersion = 2
)

// ErrCorrupt is the sentinel every *CorruptPageError unwraps to.
var ErrCorrupt = errors.New("spill: corrupt page")

// CorruptPageError reports a spill page that failed integrity
// verification: which file, which page, at what byte offset, and why.
type CorruptPageError struct {
	File   string
	Page   int
	Offset int64
	Reason string
}

func (e *CorruptPageError) Error() string {
	return fmt.Sprintf("spill: corrupt page %d at offset %d in %s: %s",
		e.Page, e.Offset, e.File, e.Reason)
}

func (e *CorruptPageError) Unwrap() error { return ErrCorrupt }

// PageCapacity returns how many tuples of the given width fit one spill
// page, net of the page header — the number callers must use when
// sizing chunks from page counts.
func PageCapacity(pageSize, tupleSize int) int {
	return (pageSize - pageRowsOff) / (RowHeaderSize + tupleSize)
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// sealPage stamps the integrity header onto a filled page buffer.
func sealPage(buf []byte, idx uint32) {
	binary.LittleEndian.PutUint32(buf[0:], pageMagic)
	binary.LittleEndian.PutUint16(buf[4:], pageVersion)
	binary.LittleEndian.PutUint16(buf[6:], 0)
	binary.LittleEndian.PutUint32(buf[8:], idx)
	binary.LittleEndian.PutUint32(buf[12:], crc32.Checksum(buf[HeaderSize:], castagnoli))
}

// verifyPage checks a page buffer read back from disk against the
// expected page index. It returns "" when the page is intact, otherwise
// a human-readable reason for the *CorruptPageError.
func verifyPage(buf []byte, idx uint32) string {
	if got := binary.LittleEndian.Uint32(buf[0:]); got != pageMagic {
		return fmt.Sprintf("bad magic %#08x (want %#08x)", got, uint32(pageMagic))
	}
	if got := binary.LittleEndian.Uint16(buf[4:]); got != pageVersion {
		return fmt.Sprintf("format version %d (want %d)", got, pageVersion)
	}
	if got := binary.LittleEndian.Uint16(buf[6:]); got != 0 {
		return fmt.Sprintf("reserved header bytes %#04x (want zero)", got)
	}
	if got := binary.LittleEndian.Uint32(buf[8:]); got != idx {
		return fmt.Sprintf("page index %d (want %d)", got, idx)
	}
	want := binary.LittleEndian.Uint32(buf[12:])
	if got := crc32.Checksum(buf[HeaderSize:], castagnoli); got != want {
		return fmt.Sprintf("checksum %#08x does not match header %#08x", got, want)
	}
	return ""
}

const (
	// DefaultIOAttempts bounds how many times one page I/O is tried
	// before the error is declared permanent and handed to the
	// sticky-error path (Config.IOAttempts overrides).
	DefaultIOAttempts = 3
	// DefaultIOBackoff is the first retry's sleep; each further retry
	// waits 4x longer (Config.IOBackoff overrides).
	DefaultIOBackoff = 250 * time.Microsecond
)

// isTransient reports whether a page I/O error is worth retrying:
// interrupted or temporarily unavailable syscalls, plus the short-write
// and short-read shapes a loaded filesystem can produce without meaning
// the data is gone. Everything else (EBADF, corruption) is permanent and
// fails the join through the sticky first error — and the directory-
// class errnos (ENOSPC, EIO, EROFS, ...) additionally indict the
// directory via dirPermanent, triggering failover rather than retry.
func isTransient(err error) bool {
	return errors.Is(err, syscall.EINTR) || errors.Is(err, syscall.EAGAIN) ||
		errors.Is(err, io.ErrShortWrite) || errors.Is(err, io.ErrUnexpectedEOF)
}

// retryIO runs one page I/O with bounded retry and exponential backoff,
// counting retries into the given stat. Only transient errors are
// retried; the last error is returned when the attempts run out. Bounds
// come from the Manager's Config (IOAttempts/IOBackoff).
func (m *Manager) retryIO(retries *atomic.Int64, op func() error) error {
	backoff := m.ioBackoff
	var err error
	for attempt := 0; attempt < m.ioAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 4
			retries.Add(1)
		}
		if err = op(); err == nil || !isTransient(err) {
			return err
		}
	}
	return err
}
