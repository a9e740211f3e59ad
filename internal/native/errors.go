package native

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// ErrCancelled is the sentinel every *CancelError unwraps to. A
// cancelled join also unwraps to its context cause, so errors.Is works
// against ErrCancelled, context.Canceled, and context.DeadlineExceeded
// alike.
var ErrCancelled = errors.New("native: join cancelled")

// ErrOverBudget is the sentinel every *BudgetError unwraps to.
var ErrOverBudget = errors.New("native: partition pair over memory budget")

// CancelError reports a join stopped by its context, with the partial
// progress at the stop: how many morsels — partition pairs, or the
// probe page ranges of a streaming join — had fully joined, out of how
// many, and the rows the complete pairs produced (0 for a stream). The
// message says "morsels", which names either kind. Partial output is
// never returned through the Result; the counts exist for diagnostics
// only.
type CancelError struct {
	Cause      error         // the context error (Canceled or DeadlineExceeded)
	PairsDone  int           // morsels fully joined before the stop
	PairsTotal int           // morsels the join planned
	RowsOut    int           // rows produced by the completed pairs
	Elapsed    time.Duration // join start to stop
}

func (e *CancelError) Error() string {
	return fmt.Sprintf("native: join cancelled after %v (%d/%d morsels joined, %d rows discarded): %v",
		e.Elapsed.Round(time.Microsecond), e.PairsDone, e.PairsTotal, e.RowsOut, e.Cause)
}

func (e *CancelError) Unwrap() []error { return []error{ErrCancelled, e.Cause} }

// isCancellation reports whether err is a context stop, directly or
// wrapped (the spill tier returns plain ctx.Err() from page
// boundaries).
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// asCancel wraps a cancellation-class error into a *CancelError
// carrying the given progress counts; other errors pass through.
func asCancel(err error, pairsDone, pairsTotal, rowsOut int) error {
	if err == nil || !isCancellation(err) {
		return err
	}
	return &CancelError{Cause: err, PairsDone: pairsDone, PairsTotal: pairsTotal, RowsOut: rowsOut}
}
