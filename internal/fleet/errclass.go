package fleet

import (
	"context"
	"errors"
	"fmt"
)

// StatusError is returned by fleet HTTP helpers (and the tenant client) when
// the remote answered with an unexpected status, so callers can classify the
// failure as retryable or permanent instead of string-matching.
type StatusError struct {
	Code int
	Msg  string
}

func (e *StatusError) Error() string {
	if e.Msg == "" {
		return fmt.Sprintf("http status %d", e.Code)
	}
	return fmt.Sprintf("http status %d: %s", e.Code, e.Msg)
}

// RetryableStatus reports whether an HTTP status code names a transient
// condition worth retrying: timeouts, pushback, and server-side errors.
// 4xx client errors (other than 408/429) are permanent — retrying a bad
// request cannot fix the request.
func RetryableStatus(code int) bool {
	switch {
	case code == 408 || code == 429:
		return true
	case code >= 500:
		return true
	default:
		return false
	}
}

// Retryable classifies an error from a fleet HTTP call when no request
// context is available. Transport-level failures — refused connections,
// resets, and timeouts, including http.Client's per-request timeout (which
// since Go 1.16 also matches errors.Is(err, context.DeadlineExceeded)) —
// are retryable: the peer may be slow or mid-restart. Explicit cancellation
// is not — the caller gave up. StatusError delegates to RetryableStatus.
// Callers that hold the request context should prefer RetryableCtx, which
// additionally tells the caller's own expired deadline from a wedged peer.
func Retryable(err error) bool { return retryable(nil, err) }

// RetryableCtx is Retryable informed by the caller's own context: once ctx
// is done nothing is retryable (the deadline or cancel belongs to the
// caller, not the peer), while a timeout with ctx still live is the
// transport giving up on a slow peer — exactly what retries are for.
func RetryableCtx(ctx context.Context, err error) bool { return retryable(ctx, err) }

func retryable(ctx context.Context, err error) bool {
	if err == nil {
		return false
	}
	if ctx != nil && ctx.Err() != nil {
		return false
	}
	if errors.Is(err, context.Canceled) {
		return false
	}
	var se *StatusError
	if errors.As(err, &se) {
		return RetryableStatus(se.Code)
	}
	// Everything else out of the transport — per-request timeouts, refused
	// connections, resets, EOF mid-body, closed connections — is treated as
	// transient; callers bound the retries.
	return true
}
