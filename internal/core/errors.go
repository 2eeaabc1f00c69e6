package core

import (
	"context"
	"errors"
	"fmt"
)

// The cancellation sentinels surfaced through the public facade. Both wrap
// the underlying context error as well, so callers can match either
// errors.Is(err, ErrCanceled) or errors.Is(err, context.Canceled).
var (
	// ErrCanceled reports that a standardization stopped because its
	// context was canceled mid-search.
	ErrCanceled = errors.New("lucidscript: standardization canceled")
	// ErrDeadlineExceeded reports that a standardization stopped because
	// its context deadline (Options.Timeout) expired mid-search.
	ErrDeadlineExceeded = errors.New("lucidscript: standardization deadline exceeded")
	// ErrNoOutput reports that a script executed successfully but produced
	// no output table, so there is nothing to hash.
	ErrNoOutput = errors.New("lucidscript: script produced no output table")
)

// ctxCause maps a terminated context to the package's sentinel errors,
// wrapping both the sentinel and the context error so errors.Is matches
// either. Returns nil while the context is live.
func ctxCause(ctx context.Context) error {
	err := ctx.Err()
	switch {
	case err == nil:
		return nil
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("%w: %w", ErrDeadlineExceeded, err)
	default:
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
}
