package hashjoin

// The package's error taxonomy, re-exported from the internal layers so
// callers can classify failures at the Env boundary with errors.Is /
// errors.As without importing internal packages. Every error an Env
// method returns matches exactly one of the sentinel classes below (or
// none, for plain configuration errors), and the typed errors carry
// the diagnosis: what was exhausted, which pair was over budget, how
// much work a cancelled join completed, or which spill page was
// corrupt.
//
// Cancellation composes with the standard library: a join cancelled
// through a context matches both ErrCancelled and the context's own
// context.Canceled / context.DeadlineExceeded.

import (
	"hashjoin/internal/arena"
	"hashjoin/internal/engine"
	"hashjoin/internal/native"
	"hashjoin/internal/sched"
	"hashjoin/internal/spill"
)

// Sentinel classes for errors.Is.
var (
	// ErrOutOfMemory classifies arena exhaustion — the Env's capacity or
	// a WithArenaBudget ceiling. The concrete error is an *OOMError with
	// a usage breakdown.
	ErrOutOfMemory = arena.ErrOutOfMemory

	// ErrOverBudget classifies a partition pair that no partitioning
	// could bring under the memory budget, under WithPipelineNoSpill.
	// The concrete error is a *BudgetError.
	ErrOverBudget = native.ErrOverBudget

	// ErrCancelled classifies a join stopped by its context. The
	// concrete error is a *CancelError carrying partial progress.
	ErrCancelled = native.ErrCancelled

	// ErrCorruptSpill classifies a spill page that failed checksum or
	// header verification on the way back from disk. The concrete error
	// is a *CorruptPageError locating the damage. (A corrupt page is
	// normally rebuilt in place; the error only escapes when the rebuild
	// attempt also fails.)
	ErrCorruptSpill = spill.ErrCorrupt

	// ErrSpillUnavailable classifies a query shed because every
	// configured spill directory was unhealthy and in-memory degradation
	// had no hash bits left. Retryable: the spill tier re-probes failed
	// directories and recovers on its own. The concrete error is a
	// *SpillUnavailableError.
	ErrSpillUnavailable = spill.ErrSpillUnavailable

	// ErrAdmission classifies a query a service-mode Env declined to
	// run: shed for size, a full queue, a queue timeout, or a draining
	// Env. The concrete error is a *AdmissionError carrying the reason;
	// a queue-timeout shed also matches context.DeadlineExceeded.
	ErrAdmission = sched.ErrAdmission

	// ErrUnsupportedPlan classifies a plan the engine refuses to compile
	// because no backend runs its shape correctly (today: a filter over
	// a join's output). A usage-class error: nothing ran.
	ErrUnsupportedPlan = engine.ErrUnsupportedPlan
)

// Typed errors for errors.As.
type (
	// OOMError reports arena exhaustion with a usage breakdown.
	OOMError = arena.OOMError

	// BudgetError reports the irreducible over-budget partition pair.
	BudgetError = native.BudgetError

	// CancelError reports a cancelled join: the cause (typically
	// context.Canceled or context.DeadlineExceeded), how many partition
	// pairs had completed, and how long the join ran.
	CancelError = native.CancelError

	// CorruptPageError reports the file, page index, and byte offset of
	// a spill page that failed verification.
	CorruptPageError = spill.CorruptPageError

	// SpillUnavailableError reports the out-of-core tier down: which
	// directories were configured and the last per-directory failure.
	SpillUnavailableError = spill.SpillUnavailableError

	// AdmissionError reports a query shed by a service-mode Env: the
	// tenant, the Reason, the planned and grantable footprints, and how
	// long the query waited before rejection.
	AdmissionError = sched.AdmissionError

	// AdmissionReason enumerates why an admission was rejected.
	AdmissionReason = sched.Reason
)

// Admission rejection reasons (AdmissionError.Reason).
const (
	// AdmissionTooLarge: the planned footprint exceeds what the arena
	// could ever grant; waiting would not help.
	AdmissionTooLarge = sched.TooLarge
	// AdmissionQueueFull: the bounded admission queue was at capacity.
	AdmissionQueueFull = sched.QueueFull
	// AdmissionTimeout: the query's context expired, or the service's
	// queue timeout elapsed, while waiting for admission.
	AdmissionTimeout = sched.Timeout
	// AdmissionDraining: the Env is shutting down and admits nothing new.
	AdmissionDraining = sched.Draining
)
