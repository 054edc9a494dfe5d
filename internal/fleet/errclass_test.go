package fleet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/url"
	"testing"
	"time"
)

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"context cancel", context.Canceled, false},
		// Without a caller context, a deadline error is indistinguishable
		// from http.Client's per-request timeout (which matches
		// errors.Is(err, context.DeadlineExceeded) since Go 1.16): a slow
		// peer, retryable. RetryableCtx covers the caller-gave-up case.
		{"deadline", context.DeadlineExceeded, true},
		{"client timeout", &url.Error{Op: "Post", Err: fmt.Errorf("net/http: request canceled (%w)", context.DeadlineExceeded)}, true},
		{"wrapped cancel", fmt.Errorf("submit: %w", context.Canceled), false},
		{"status 500", &StatusError{Code: 500}, true},
		{"status 503", &StatusError{Code: 503}, true},
		{"status 429", &StatusError{Code: 429}, true},
		{"status 408", &StatusError{Code: 408}, true},
		{"status 404", &StatusError{Code: 404}, false},
		{"status 400", &StatusError{Code: 400}, false},
		{"wrapped status 404", fmt.Errorf("get: %w", &StatusError{Code: 404}), false},
		{"net op error", &net.OpError{Op: "dial", Err: errors.New("refused")}, true},
		{"url error around permanent", &url.Error{Op: "Post", Err: &StatusError{Code: 400}}, false},
		{"unknown error", errors.New("mystery"), true},
	}
	for _, tc := range cases {
		if got := Retryable(tc.err); got != tc.want {
			t.Errorf("Retryable(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestRetryableCtx: the caller's own context is the arbiter for timeout
// errors — a per-request timeout with the ctx still live is a slow peer
// (retry), the same error once the ctx is done means the caller gave up.
func TestRetryableCtx(t *testing.T) {
	timeout := &url.Error{Op: "Post", Err: fmt.Errorf("net/http: request canceled (%w)", context.DeadlineExceeded)}
	if !RetryableCtx(context.Background(), timeout) {
		t.Error("client timeout with live ctx must be retryable")
	}
	expired, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	if RetryableCtx(expired, timeout) {
		t.Error("timeout with the caller's deadline already expired must not be retryable")
	}
	cancelled, stop := context.WithCancel(context.Background())
	stop()
	if RetryableCtx(cancelled, &StatusError{Code: 500}) {
		t.Error("once the caller cancelled, even a retryable status is not worth retrying")
	}
	if !RetryableCtx(context.Background(), &StatusError{Code: 500}) {
		t.Error("status 500 with live ctx must stay retryable")
	}
}

func TestBreakerSuspectAndRecovery(t *testing.T) {
	clock := newFakeClock()
	b := newBreakerSet(3, 30*time.Second, clock.Now)

	if b.Suspect("w1") {
		t.Fatal("fresh worker already suspect")
	}
	for i := 0; i < 2; i++ {
		if b.Failure("w1") {
			t.Fatalf("breaker opened after %d failures, threshold is 3", i+1)
		}
	}
	if !b.Failure("w1") {
		t.Fatal("third failure should open the breaker")
	}
	if !b.Suspect("w1") || b.State("w1") != BreakerSuspect || b.Suspects() != 1 {
		t.Fatalf("state after open = %s (suspects %d)", b.State("w1"), b.Suspects())
	}

	// A success snaps it closed immediately.
	b.Success("w1")
	if b.Suspect("w1") || b.Suspects() != 0 {
		t.Fatal("success should close the breaker")
	}

	// Re-open, then let the reset window decay it (half-open: eligible again).
	for i := 0; i < 3; i++ {
		b.Failure("w1")
	}
	if !b.Suspect("w1") {
		t.Fatal("breaker should be open again")
	}
	clock.Advance(31 * time.Second)
	if b.Suspect("w1") {
		t.Fatal("suspicion should decay after the reset window")
	}

	// Forget drops all state.
	for i := 0; i < 3; i++ {
		b.Failure("w2")
	}
	b.Forget("w2")
	if b.Suspect("w2") || b.State("w2") != BreakerLive {
		t.Fatal("Forget should clear the entry")
	}
}
