// Package trajclient consumes the placement service's NDJSON trajectory
// streams (GET /v1/jobs/{id}/trajectory). It speaks to a single placerd
// worker or to a fleet coordinator's proxy interchangeably — both serve the
// same endpoint shape — and turns the line protocol into typed points with
// exactly-once, strictly-ascending-iteration delivery across reconnects:
// every reconnect resumes with ?after=<last delivered iteration>, so a
// dropped connection never loses or duplicates a point. This is the client
// half of the live Fig.-3 view: placertop tails these streams to draw
// HPWL/overflow convergence sparklines while a job runs.
package trajclient

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/backoff"
)

// Point is one decoded trajectory sample: the JSON wire form of the
// service's per-iteration record (service.JobTrajectoryPoint).
type Point struct {
	Iter      int     `json:"iter"`
	Overflow  float64 `json:"overflow"`
	HPWL      float64 `json:"hpwl"`
	Objective float64 `json:"objective"`
	Param     float64 `json:"param"`
	Lambda    float64 `json:"lambda"`
	// GuardTrips is the job's cumulative guard-trip count when the point was
	// recorded; a jump marks a divergence rollback.
	GuardTrips int `json:"guard_trips,omitempty"`
}

// Stop may be returned by a Stream sink to end the stream cleanly: Stream
// stops delivering and returns nil.
var Stop = errors.New("trajclient: stop streaming") //nolint:errname // sentinel, not an error condition

// ErrNotFound marks a permanent 4xx from the server (unknown job, bad
// request): retrying cannot help, so Stream and Fetch fail immediately.
var ErrNotFound = errors.New("trajclient: job not found")

// Client streams trajectories from one base URL (a placerd worker or a
// coordinator proxying for its fleet). The zero value is not usable; set
// Base. All other fields are optional.
type Client struct {
	// Base is the server base URL, e.g. "http://127.0.0.1:8080".
	Base string
	// HTTP is the client used for stream requests. nil uses a private
	// timeout-free client: a followed stream lives as long as the job runs,
	// so an overall request timeout would cut it off mid-run. Cancellation
	// comes from the context instead.
	HTTP *http.Client
	// BackoffMin/BackoffMax are the base and cap of the jittered
	// exponential reconnect backoff (defaults 100ms and 30× the base).
	BackoffMin time.Duration
	BackoffMax time.Duration
	// MaxAttempts is how many consecutive failed connect/read attempts
	// Stream tolerates before giving up (default 8; any successfully
	// delivered point resets the budget). Negative means retry forever.
	MaxAttempts int
	// OnRetry, when non-nil, observes each reconnect: the error that ended
	// the previous attempt and the wait before the next one.
	OnRetry func(jobID string, attempt int, wait time.Duration, err error)
}

// defaultStreamClient is shared by clients that do not inject their own: no
// overall timeout (streams are long-lived), cancellation via context.
var defaultStreamClient = &http.Client{}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return defaultStreamClient
}

func (c *Client) maxAttempts() int {
	if c.MaxAttempts == 0 {
		return 8
	}
	return c.MaxAttempts
}

// streamURL builds the endpoint URL for one connection attempt.
func (c *Client) streamURL(jobID string, after int, follow bool) string {
	q := url.Values{}
	q.Set("after", strconv.Itoa(after))
	if !follow {
		q.Set("follow", "false")
	}
	return c.Base + "/v1/jobs/" + url.PathEscape(jobID) + "/trajectory?" + q.Encode()
}

// Fetch returns the currently buffered points with Iter > after in one
// round trip (no follow): the snapshot mode placertop -once uses.
func (c *Client) Fetch(ctx context.Context, jobID string, after int) ([]Point, error) {
	var pts []Point
	last := after
	err := c.streamOnce(ctx, jobID, false, &last, func(p Point) error {
		pts = append(pts, p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return pts, nil
}

// Stream follows the job's trajectory, invoking fn once per point in
// strictly ascending Iter order, starting after the given iteration (use -1
// for the whole history). Dropped connections are retried with exponential
// backoff, resuming via ?after so no point is delivered twice. Stream
// returns nil when the server ends the stream (the job reached a terminal
// state) or fn returns Stop; it returns ctx.Err() on cancellation, the
// sink's error if fn fails, and the last transport error once the retry
// budget is spent.
func (c *Client) Stream(ctx context.Context, jobID string, after int, fn func(Point) error) error {
	last := after
	attempt := 0
	retry := backoff.New(c.BackoffMin, c.BackoffMax, rand.Int63())
	for {
		before := last
		err := c.streamOnce(ctx, jobID, true, &last, fn)
		switch {
		case err == nil:
			return nil // clean end of stream: job is terminal
		case errors.Is(err, Stop):
			return nil
		case ctx.Err() != nil:
			return ctx.Err()
		case errors.Is(err, ErrNotFound):
			return err
		}
		var sinkErr *sinkError
		if errors.As(err, &sinkErr) {
			return sinkErr.err
		}
		if last > before {
			// Progress was made this attempt; reset the failure budget.
			attempt = 0
			retry.Reset()
		}
		attempt++
		if max := c.maxAttempts(); max > 0 && attempt > max {
			return fmt.Errorf("trajclient: job %s: giving up after %d attempts: %w", jobID, attempt-1, err)
		}
		wait := retry.Next()
		if c.OnRetry != nil {
			c.OnRetry(jobID, attempt, wait, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(wait):
		}
	}
}

// sinkError wraps an error returned by the caller's fn so Stream can tell
// "the sink rejected a point" (fail immediately, unwrapped) apart from "the
// transport failed" (reconnect and resume).
type sinkError struct{ err error }

func (e *sinkError) Error() string { return e.err.Error() }
func (e *sinkError) Unwrap() error { return e.err }

// streamOnce runs a single connection: it requests points after *last,
// decodes NDJSON lines, and delivers every point with Iter > *last (updating
// *last as it goes — the server already filters by ?after, the client-side
// check makes duplicate delivery impossible even against a buggy or proxied
// server). A nil return means the server ended the stream cleanly.
func (c *Client) streamOnce(ctx context.Context, jobID string, follow bool, last *int, fn func(Point) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.streamURL(jobID, *last, follow), nil)
	if err != nil {
		return err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK:
		// fall through to the line loop
	case resp.StatusCode == http.StatusNotFound || resp.StatusCode == http.StatusBadRequest:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("%w: %s (status %d, %s)", ErrNotFound, jobID, resp.StatusCode, msg)
	default:
		// 409 (pending at the coordinator, no worker yet), 502 (worker
		// unreachable mid-reroute), 503: all retryable.
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		return fmt.Errorf("trajclient: job %s: status %d", jobID, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var p Point
		if err := json.Unmarshal(line, &p); err != nil {
			return fmt.Errorf("trajclient: job %s: bad stream line: %w", jobID, err)
		}
		if p.Iter <= *last {
			continue // duplicate across a reconnect boundary
		}
		if err := fn(p); err != nil {
			if errors.Is(err, Stop) {
				return Stop
			}
			return &sinkError{err: err}
		}
		*last = p.Iter
	}
	return sc.Err()
}
