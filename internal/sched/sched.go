// Package sched makes one resident Env safe and fair for N concurrent
// pipeline runs. It has two halves:
//
//   - An admission Controller that arbitrates the shared arena: each
//     query declares its planned scratch footprint, and the controller
//     either admits it immediately (carving a private window from the
//     arena — see arena.Carve), queues it FIFO behind earlier arrivals,
//     or sheds it with a typed *AdmissionError when the footprint can
//     never fit, the bounded queue is full, or the wait exceeds its
//     deadline. "Design Trade-offs for a Robust Dynamic Hybrid Hash
//     Join" motivates the hazard: the memory a join can use shrinks
//     under concurrent load, so the budget must be arbitrated up front,
//     not discovered mid-join as an OOM.
//
//   - A shared morsel Pool that replaces per-query worker goroutines: a
//     fixed set of workers interleaves partition-pair claims across all
//     admitted queries by weighted round-robin, so a query joining a
//     thousand pairs cannot starve a neighbor joining four.
//
// Window reclamation is quiescent: a bump allocator cannot free carved
// windows out of order, so released windows are "burned" until the
// moment no query is in flight, when the controller truncates the arena
// back to the pre-carve watermark. Admission therefore self-limits: a
// query that cannot carve a window waits for quiescence rather than
// OOMing a neighbor.
package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hashjoin/internal/arena"
)

// ErrAdmission is the sentinel every *AdmissionError unwraps to, so
// callers can classify admission rejections with errors.Is without
// naming the struct.
var ErrAdmission = errors.New("sched: admission rejected")

// Reason says why an admission was rejected.
type Reason int

const (
	// TooLarge: the planned footprint exceeds what the arena could ever
	// grant, even with no neighbors. Waiting would not help.
	TooLarge Reason = iota + 1
	// QueueFull: the bounded admission queue is at capacity.
	QueueFull
	// Timeout: the query's context expired, or the controller's queue
	// timeout elapsed, while waiting for admission.
	Timeout
	// Draining: the controller is shutting down and admits nothing new.
	Draining
)

// String implements fmt.Stringer.
func (r Reason) String() string {
	switch r {
	case TooLarge:
		return "too-large"
	case QueueFull:
		return "queue-full"
	case Timeout:
		return "timeout"
	case Draining:
		return "draining"
	default:
		return fmt.Sprintf("Reason(%d)", int(r))
	}
}

// AdmissionError reports a query the controller declined to run. It
// unwraps to ErrAdmission and, when a cause is attached (Timeout), to
// the cause — so a queue-timeout rejection matches both ErrAdmission
// and context.DeadlineExceeded, and the exit-code taxonomy classifies
// it as cancellation.
type AdmissionError struct {
	Tenant  string
	Reason  Reason
	Planned uint64        // declared scratch footprint, bytes
	Limit   uint64        // TooLarge: the largest grantable footprint
	Waited  time.Duration // time spent queued before rejection
	Cause   error         // Timeout: the context/deadline error
}

func (e *AdmissionError) Error() string {
	s := fmt.Sprintf("sched: admission rejected (%s): tenant %q, planned %d bytes", e.Reason, e.Tenant, e.Planned)
	switch e.Reason {
	case TooLarge:
		s += fmt.Sprintf(", grantable %d", e.Limit)
	case Timeout:
		s += fmt.Sprintf(", waited %v", e.Waited.Round(time.Millisecond))
	}
	return s
}

// Unwrap lets errors.Is see both the admission sentinel and the cause.
func (e *AdmissionError) Unwrap() []error {
	if e.Cause != nil {
		return []error{ErrAdmission, e.Cause}
	}
	return []error{ErrAdmission}
}

// Config tunes a Controller.
type Config struct {
	// Arena is the shared address space admission arbitrates. Required.
	Arena *arena.Arena

	// MaxConcurrent bounds the queries in flight at once; further
	// admissible queries queue. 0 selects 8.
	MaxConcurrent int

	// QueueDepth bounds how many queries may wait for admission; one
	// more is shed with QueueFull. 0 selects 64.
	QueueDepth int

	// QueueTimeout bounds how long a query waits for admission before
	// being shed with Timeout; a query's own context deadline applies
	// regardless. 0 means no controller-side bound.
	QueueTimeout time.Duration

	// Workers sizes the shared morsel pool. 0 selects GOMAXPROCS.
	Workers int
}

func (c Config) maxConcurrent() int {
	if c.MaxConcurrent > 0 {
		return c.MaxConcurrent
	}
	return 8
}

func (c Config) queueDepth() int {
	if c.QueueDepth > 0 {
		return c.QueueDepth
	}
	return 64
}

// Counters are the controller's aggregate service counters. Totals are
// cumulative since construction; InFlight, Queued, and ReservedBytes
// are instantaneous.
type Counters struct {
	Admitted  uint64 // grants issued
	Waited    uint64 // grants or rejections that spent time in the queue
	Completed uint64 // grants released without error
	Failed    uint64 // grants released with an error

	ShedTooLarge  uint64
	ShedQueueFull uint64
	ShedTimeout   uint64
	ShedDraining  uint64

	QueueWaitTotal  time.Duration // summed queue wait of all admissions
	MorselsExecuted uint64        // morsels run by the shared pool
	Reclaims        uint64        // quiescent window reclamations

	// Pressure counts the events where a queued head waiter could not
	// carve a window and the controller shrank the advisory budgets of
	// in-flight grants; PressureShrunkBytes sums the bytes shaved off.
	Pressure            uint64
	PressureShrunkBytes uint64

	InFlight      int
	Queued        int
	ReservedBytes uint64 // bytes in outstanding carved windows
}

// Shed sums the rejections across reasons.
func (c Counters) Shed() uint64 {
	return c.ShedTooLarge + c.ShedQueueFull + c.ShedTimeout + c.ShedDraining
}

// Request describes a query asking to run.
type Request struct {
	Tenant string
	// Weight biases the shared pool's round-robin toward this query's
	// morsels; 0 means 1.
	Weight int
	// Planned is the scratch footprint to reserve, in bytes; the grant
	// carves a window of this size. Ignored for Exclusive requests,
	// which run directly on the shared arena.
	Planned uint64
	// Exclusive requests the whole Env: the grant is issued only when
	// nothing else is in flight, and blocks every later admission until
	// released. Simulator-backed queries need it (the cycle simulator
	// is single-threaded), as do durable loads (appending relations
	// that must survive window reclamation).
	Exclusive bool
}

// minPlanned floors tiny declared footprints so a window always has
// room for batch scratch mis-estimated at the margin.
const minPlanned = 256 << 10

// waitResult is what a queued waiter eventually receives.
type waitResult struct {
	g   *Grant
	err *AdmissionError
}

type waiter struct {
	req   Request
	ready chan waitResult // buffered(1): grant delivery never blocks the releaser
}

// Controller is the admission arbiter. Create with NewController; one
// per Env.
type Controller struct {
	cfg  Config
	pool *Pool

	mu    sync.Mutex
	cond  *sync.Cond // broadcast on release, for Close's drain
	queue []*waiter  // FIFO

	inflight  int
	exclusive bool
	draining  bool

	// Quiescent-reclaim bookkeeping: base is the arena watermark before
	// the first outstanding carve, tail the watermark after the latest.
	// At quiescence, if the arena still ends exactly at tail (no foreign
	// durable allocation landed above the windows), truncating to base
	// reclaims every burned window.
	outstanding int
	base, tail  uint64
	reserved    uint64

	// grants holds the live carved grants, so queue pressure can shrink
	// their advisory budgets (see pressureLocked).
	grants map[*Grant]struct{}

	// reclaimHook, when set, runs (on its own goroutine, without the
	// controller lock) after each successful quiescent reclamation. The
	// service layer uses it to trim caches sized against the arena's
	// headroom — e.g. evicting resident build sides — at exactly the
	// moments capacity turns over.
	reclaimHook func()

	c Counters
}

// NewController creates a controller over cfg.Arena and starts the
// shared morsel pool. Close releases the pool's workers.
func NewController(cfg Config) *Controller {
	if cfg.Arena == nil {
		panic("sched: Config.Arena is required")
	}
	c := &Controller{cfg: cfg, pool: NewPool(cfg.Workers), grants: make(map[*Grant]struct{})}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Pool returns the shared morsel pool, for wiring into engine configs.
func (c *Controller) Pool() *Pool { return c.pool }

// SetReclaimHook installs fn to run after each quiescent window
// reclamation (asynchronously, off the controller lock, so fn may call
// back into the controller). Pass nil to clear. Set it before serving
// traffic; the hook is read under the controller lock.
func (c *Controller) SetReclaimHook(fn func()) {
	c.mu.Lock()
	c.reclaimHook = fn
	c.mu.Unlock()
}

// grantable returns the largest footprint a request could ever carve:
// the arena's effective ceiling minus what is durably used at the best
// possible moment (quiescence, with every burned window reclaimed).
func (c *Controller) grantableLocked() uint64 {
	a := c.cfg.Arena
	ceiling := a.Cap()
	if b := a.Budget(); b != 0 && b < ceiling {
		ceiling = b
	}
	durable := a.Used()
	if c.outstanding > 0 {
		durable = c.base // windows above base are reclaimable
	}
	if ceiling <= durable {
		return 0
	}
	return ceiling - durable
}

// Admit asks to run req. It returns a Grant immediately when capacity
// allows, waits FIFO behind earlier arrivals otherwise, and returns a
// *AdmissionError when the request is shed (see Reason). The caller
// must Release the grant exactly once.
func (c *Controller) Admit(ctx context.Context, req Request) (*Grant, error) {
	if req.Weight < 1 {
		req.Weight = 1
	}
	if !req.Exclusive && req.Planned < minPlanned {
		req.Planned = minPlanned
	}
	start := time.Now()

	c.mu.Lock()
	if c.draining {
		c.c.ShedDraining++
		c.mu.Unlock()
		return nil, &AdmissionError{Tenant: req.Tenant, Reason: Draining, Planned: req.Planned}
	}
	if !req.Exclusive {
		if limit := c.grantableLocked(); req.Planned > limit {
			c.c.ShedTooLarge++
			c.mu.Unlock()
			return nil, &AdmissionError{Tenant: req.Tenant, Reason: TooLarge, Planned: req.Planned, Limit: limit}
		}
	}
	if len(c.queue) == 0 {
		if g := c.tryAdmitLocked(req); g != nil {
			c.mu.Unlock()
			return g, nil
		}
	}
	if len(c.queue) >= c.cfg.queueDepth() {
		c.c.ShedQueueFull++
		c.mu.Unlock()
		return nil, &AdmissionError{Tenant: req.Tenant, Reason: QueueFull, Planned: req.Planned}
	}
	w := &waiter{req: req, ready: make(chan waitResult, 1)}
	c.queue = append(c.queue, w)
	c.c.Waited++
	c.mu.Unlock()

	var timeout <-chan time.Time
	if c.cfg.QueueTimeout > 0 {
		t := time.NewTimer(c.cfg.QueueTimeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case r := <-w.ready:
		return c.delivered(r, start)
	case <-ctx.Done():
		return c.abandon(w, start, ctx.Err())
	case <-timeout:
		return c.abandon(w, start, context.DeadlineExceeded)
	}
}

// delivered finalizes a result handed to a waiter: stamps the queue
// wait on grants and rejections alike.
func (c *Controller) delivered(r waitResult, start time.Time) (*Grant, error) {
	wait := time.Since(start)
	if r.err != nil {
		r.err.Waited = wait
		return nil, r.err
	}
	r.g.wait = wait
	c.mu.Lock()
	c.c.QueueWaitTotal += wait
	c.mu.Unlock()
	return r.g, nil
}

// abandon removes a waiter whose context or queue timer expired. If the
// grant raced in first, it is quietly returned to the controller — the
// query never observed it, so it counts as a shed, not a completion.
func (c *Controller) abandon(w *waiter, start time.Time, cause error) (*Grant, error) {
	c.mu.Lock()
	removed := false
	for i, q := range c.queue {
		if q == w {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			removed = true
			break
		}
	}
	c.mu.Unlock()
	if !removed {
		// Already dequeued: a result is in flight (buffered channel).
		r := <-w.ready
		if r.g != nil {
			// The grant raced the timeout; the query never saw it.
			r.g.undo()
		} else if r.err != nil {
			// A shed (draining) raced the timeout: report the shed that
			// actually happened, stamped with the wait.
			r.err.Waited = time.Since(start)
			return nil, r.err
		}
	}
	c.mu.Lock()
	c.c.ShedTimeout++
	c.mu.Unlock()
	return nil, &AdmissionError{
		Tenant: w.req.Tenant, Reason: Timeout, Planned: w.req.Planned,
		Waited: time.Since(start), Cause: cause,
	}
}

// tryAdmitLocked issues a grant if capacity allows right now, else nil.
func (c *Controller) tryAdmitLocked(req Request) *Grant {
	if req.Exclusive {
		if c.inflight > 0 {
			return nil
		}
		c.reclaimLocked() // exclusive runs see a clean arena tail
		c.inflight++
		c.exclusive = true
		c.c.Admitted++
		c.c.InFlight = c.inflight
		return &Grant{c: c, a: c.cfg.Arena, req: req}
	}
	if c.exclusive || c.inflight >= c.cfg.maxConcurrent() {
		return nil
	}
	if c.outstanding == 0 {
		c.reclaimLocked() // burned windows from the last wave
	}
	preCarve := c.cfg.Arena.Used()
	child, err := c.cfg.Arena.Carve(req.Planned, 64)
	if err != nil {
		// No room while neighbors hold windows: wait for quiescence.
		// (A footprint that can never fit was already shed TooLarge.)
		return nil
	}
	if c.outstanding == 0 {
		c.base = preCarve
	}
	c.outstanding++
	c.tail = c.cfg.Arena.Used()
	c.reserved += req.Planned
	c.inflight++
	c.c.Admitted++
	c.c.InFlight = c.inflight
	c.c.ReservedBytes = c.reserved
	g := &Grant{c: c, a: child, req: req, carved: true}
	g.advisory.Store(int64(req.Planned))
	c.grants[g] = struct{}{}
	return g
}

// minAdvisory floors pressure shrinks: a grant's advisory budget never
// drops below this, so a squeezed query still has room for one spill
// chunk and keeps making progress instead of thrashing.
const minAdvisory = 64 << 10

// pressureLocked is the mid-join memory-pressure signal: when a queued
// head waiter cannot carve a window, the controller halves the advisory
// budget of every in-flight carved grant. Budgeted native joins sample
// the advisory at each partition-pair claim (native Config.BudgetNow)
// and demote planned-resident pairs to disk, shrinking their scratch
// high-water mark so the next quiescent reclamation frees room sooner.
// The carved windows themselves are immutable — a bump allocator cannot
// give memory back mid-flight — which is why the signal is advisory.
func (c *Controller) pressureLocked() {
	shrunk := uint64(0)
	for g := range c.grants {
		next := g.advisory.Load() / 2
		if next < minAdvisory {
			next = minAdvisory
		}
		shrunk += g.shrinkTo(next)
	}
	if shrunk > 0 {
		c.c.Pressure++
		c.c.PressureShrunkBytes += shrunk
	}
}

// reclaimLocked truncates burned carve windows back to the pre-carve
// watermark, if nothing foreign was allocated above them. Call only
// with no carves outstanding.
func (c *Controller) reclaimLocked() {
	if c.tail == 0 || c.outstanding > 0 {
		return
	}
	if c.cfg.Arena.Used() == c.tail {
		c.cfg.Arena.Truncate(c.base)
		c.c.Reclaims++
		if c.reclaimHook != nil {
			go c.reclaimHook()
		}
	}
	// Either reclaimed, or foreign durable data pinned the windows (the
	// caller allocated on the shared arena mid-flight); in both cases
	// the bookkeeping starts fresh at the next carve.
	c.tail, c.base = 0, 0
}

// admitWaitersLocked grants queued requests FIFO while capacity lasts.
// Strict FIFO is the no-starvation guarantee: a large planned footprint
// at the head waits for space, and smaller later arrivals wait behind
// it rather than overtaking forever.
func (c *Controller) admitWaitersLocked() {
	for len(c.queue) > 0 {
		w := c.queue[0]
		g := c.tryAdmitLocked(w.req)
		if g == nil {
			// The head waiter still cannot be seated: squeeze the queries
			// holding windows so their scratch drains sooner.
			if !w.req.Exclusive {
				c.pressureLocked()
			}
			return
		}
		c.queue = c.queue[1:]
		w.ready <- waitResult{g: g}
	}
}

// release returns a grant's capacity. err is the query's outcome, for
// the Completed/Failed counters; the abandon path uses undo instead.
func (c *Controller) release(g *Grant, err error, abandoned bool) {
	c.mu.Lock()
	c.inflight--
	if g.req.Exclusive {
		c.exclusive = false
	}
	if g.carved {
		delete(c.grants, g)
		c.outstanding--
		c.reserved -= g.req.Planned
		if c.outstanding == 0 {
			c.reclaimLocked()
		}
	}
	switch {
	case abandoned:
		c.c.Admitted--
	case err != nil:
		c.c.Failed++
	default:
		c.c.Completed++
	}
	c.c.InFlight = c.inflight
	c.c.ReservedBytes = c.reserved
	c.admitWaitersLocked()
	c.c.Queued = len(c.queue)
	c.mu.Unlock()
	c.cond.Broadcast()
}

// Stats snapshots the aggregate counters. Safe to call concurrently
// with admissions and releases.
func (c *Controller) Stats() Counters {
	c.mu.Lock()
	s := c.c
	s.InFlight = c.inflight
	s.Queued = len(c.queue)
	s.ReservedBytes = c.reserved
	c.mu.Unlock()
	s.MorselsExecuted = c.pool.Morsels()
	return s
}

// Close drains the controller: queued waiters are shed with Draining,
// new admissions are rejected, in-flight grants run to completion, and
// the shared pool's workers exit. Idempotent.
func (c *Controller) Close() {
	c.mu.Lock()
	if c.draining {
		for c.inflight > 0 {
			c.cond.Wait()
		}
		c.mu.Unlock()
		return
	}
	c.draining = true
	for _, w := range c.queue {
		c.c.ShedDraining++
		w.ready <- waitResult{err: &AdmissionError{Tenant: w.req.Tenant, Reason: Draining, Planned: w.req.Planned}}
	}
	c.queue = nil
	for c.inflight > 0 {
		c.cond.Wait()
	}
	c.reclaimLocked()
	c.mu.Unlock()
	c.pool.Close()
}

// Grant is an admitted query's capacity: a private scratch arena and a
// seat among MaxConcurrent. Release it exactly once, with the query's
// outcome.
type Grant struct {
	c      *Controller
	a      *arena.Arena
	req    Request
	carved bool
	wait   time.Duration

	// advisory is the grant's current advisory scratch budget in bytes:
	// Planned at admission, shrunk (never grown) by controller pressure
	// or Shrink. 0 for exclusive grants — no signal.
	advisory atomic.Int64

	mu       sync.Mutex
	released bool
}

// Arena returns the grant's scratch arena: a carved private window, or
// the shared arena itself for an exclusive grant.
func (g *Grant) Arena() *arena.Arena { return g.a }

// QueueWait returns how long the query waited for admission.
func (g *Grant) QueueWait() time.Duration { return g.wait }

// Planned returns the admitted scratch budget in bytes (the carved
// window size); 0 for exclusive grants.
func (g *Grant) Planned() uint64 {
	if !g.carved {
		return 0
	}
	return g.req.Planned
}

// BudgetNow returns the grant's current advisory scratch budget in
// bytes: Planned at admission, lowered when the controller applies
// queue pressure or the holder calls Shrink. Budgeted native joins
// sample it at each partition-pair claim (native Config.BudgetNow) and
// demote pairs the shrunken budget no longer covers. 0 (exclusive grants) means no
// signal. Safe to call concurrently with pressure.
func (g *Grant) BudgetNow() int { return int(g.advisory.Load()) }

// Shrink lowers the grant's advisory budget to n bytes (floored at the
// controller's minimum); raising it is a no-op, so the signal is
// monotonic and a join never sees the budget grow back mid-flight. It
// returns the bytes actually shaved off.
func (g *Grant) Shrink(n int) uint64 {
	if !g.carved {
		return 0
	}
	to := int64(n)
	if to < minAdvisory {
		to = minAdvisory
	}
	return g.shrinkTo(to)
}

// shrinkTo lowers advisory to at most target, returning the bytes
// removed. CAS keeps concurrent shrinks monotonic-down.
func (g *Grant) shrinkTo(target int64) uint64 {
	for {
		cur := g.advisory.Load()
		if cur <= target {
			return 0
		}
		if g.advisory.CompareAndSwap(cur, target) {
			return uint64(cur - target)
		}
	}
}

// Release returns the grant's capacity and records the query's outcome.
// The grant's arena must not be used afterwards: its window is subject
// to reclamation. Releasing twice is a no-op.
func (g *Grant) Release(err error) {
	g.mu.Lock()
	done := g.released
	g.released = true
	g.mu.Unlock()
	if done {
		return
	}
	g.c.release(g, err, false)
}

// undo is Release for a grant its query never saw (admission raced a
// timeout): capacity returns, no completion is counted.
func (g *Grant) undo() {
	g.mu.Lock()
	done := g.released
	g.released = true
	g.mu.Unlock()
	if done {
		return
	}
	g.c.release(g, nil, true)
}
