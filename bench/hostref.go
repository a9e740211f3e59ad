package main

import (
	"math/rand"
	"time"
	"unsafe"
)

// hostRef is the harness's yardstick for how fast the host is right
// now. The reference host is a two-vCPU guest on a shared machine: the
// same query takes 75 ms in one minute and 125 ms in the next, its
// user time inflated by whatever the neighbours do to the memory
// system, while an integer loop does not move at all (README,
// "Noise"). No window a run can afford averages that out, so every
// timed section is interleaved with this kernel — a small hash join
// the harness owns, frozen with the benchmark — and the end-to-end
// timings are reported relative to it: measured time × refNominalMs ÷
// the kernel's median time over the same window.
//
// The kernel is shaped like the work it stands in for, because that is
// what tracked the queries (pure pointer chases, gathers and copies
// moved a third as much as a query did): a 2 MB open-addressing table
// built from refBuild keys, refProbe probes that each copy a 100-byte
// row out of a 20 MB row array into an output ring, and an integer
// loop of about the same length for the part of a query that is not
// memory (without it the kernel is twice as sensitive to the host as
// a query and the ratio over-corrects). Fixed inputs (its own constant
// seed, not the run's): it measures the host, not the workload.
type hostRef struct {
	keys, probe []uint32
	tab         []uint32 // slot → index into keys, +1; 0 is empty
	rows, out   []byte
}

const (
	refBuild    = 200_000
	refProbe    = 100_000
	refRow      = 100
	refSlots    = 1 << 19
	refOutBytes = 8 << 20
	refSpin     = 6_400_000

	// refNominalMs is the kernel's median time on the reference host in
	// its quiet state: the speed the normalised metrics are quoted at.
	// Frozen; only the ratio between two runs means anything.
	refNominalMs = 16.0

	// refEvery is the least time between two runs of the kernel inside a
	// measurement window.
	refEvery = 200 * time.Millisecond
)

// newHostRef allocates the kernel's arrays outside the Go heap, so the
// yardstick does not move the collector's pacing of the program it is
// held against.
func newHostRef() *hostRef {
	u32 := func(n int) []uint32 {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&offHeap(4 * n)[0])), n)
	}
	h := &hostRef{
		keys: u32(refBuild), probe: u32(refProbe), tab: u32(refSlots),
		rows: offHeap(refBuild * refRow), out: offHeap(refOutBytes),
	}
	rng := rand.New(rand.NewSource(20040330))
	for i, k := range rng.Perm(refBuild) {
		h.keys[i] = uint32(k)*2 + 1
	}
	for i := range h.probe {
		h.probe[i] = h.keys[rng.Intn(refBuild)]
	}
	for i := range h.rows {
		h.rows[i] = byte(i)
	}
	h.run() // first touch of the table and the ring
	return h
}

// run executes the kernel once and returns how long it took.
func (h *hostRef) run() time.Duration {
	start := time.Now()
	clear(h.tab)
	const mask = refSlots - 1
	for i, k := range h.keys {
		s := (k * 2654435761) >> 13 & mask
		for h.tab[s] != 0 {
			s = (s + 1) & mask
		}
		h.tab[s] = uint32(i + 1)
	}
	o := 0
	var sum uint64
	for _, k := range h.probe {
		s := (k * 2654435761) >> 13 & mask
		for h.tab[s] != 0 {
			if j := int(h.tab[s] - 1); h.keys[j] == k {
				if o+refRow > len(h.out) {
					o = 0
				}
				copy(h.out[o:o+refRow], h.rows[j*refRow:(j+1)*refRow])
				o += refRow
				sum += uint64(k)
				break
			}
			s = (s + 1) & mask
		}
	}
	x := sum | 1
	for i := 0; i < refSpin; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	h.out[0] = byte(x) // keep the loop's result live
	return time.Since(start)
}

// refClock decides when a window runs the kernel and collects its
// times.
type refClock struct {
	h    *hostRef
	last time.Time
	ms   []float64
}

// tick runs the kernel if refEvery has passed since it last ran.
func (c *refClock) tick() {
	if c.h == nil || time.Since(c.last) < refEvery {
		return
	}
	c.ms = append(c.ms, ms(c.h.run()))
	c.last = time.Now()
}
