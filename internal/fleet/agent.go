package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
	"repro/internal/obs"
	"repro/internal/service"
)

// Agent is the worker side of the fleet protocol: a heartbeat loop that
// registers a placerd node with the coordinator and keeps its capacity and
// queue-depth report fresh. The agent is deliberately dumb — all routing
// and re-routing intelligence lives in the coordinator; a worker only
// reports and serves its normal HTTP API.
type Agent struct {
	// Coordinator is the coordinator base URL (e.g. http://coord:7878).
	Coordinator string
	// ID is this worker's stable identity.
	ID string
	// URL is the advertised base URL of this worker's placerd API.
	URL string
	// DataDir is the durable store root advertised for checkpoint handoff
	// ("" when the store is private to this node).
	DataDir string
	// Stats supplies the live capacity/load snapshot for each heartbeat.
	Stats func() service.ManagerStats
	// Interval is the heartbeat period (default 1s).
	Interval time.Duration
	// Client is the HTTP client (nil: 5s timeout default).
	Client *http.Client
	// Log receives agent events; nil disables logging.
	Log *obs.Logger

	registered atomic.Bool
}

// Registered reports whether the most recent heartbeat was acknowledged —
// the worker's fleet-readiness signal.
func (a *Agent) Registered() bool { return a.registered.Load() }

// Run sends heartbeats until ctx ends. The first successful beat flips
// Registered, and every beat re-registers, so a restarted coordinator heals
// automatically on the next success. Failures back off with jittered
// exponential delays (capped at 16× the interval) instead of hammering a
// coordinator that is down or mid-restart; the first success snaps the
// cadence back to the configured interval.
func (a *Agent) Run(ctx context.Context) {
	interval := a.Interval
	if interval <= 0 {
		interval = time.Second
	}
	client := a.Client
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	retry := backoff.New(interval, 16*interval, rand.Int63())
	timer := time.NewTimer(interval)
	defer timer.Stop()
	for {
		delay := interval
		if err := a.beat(ctx, client); err != nil {
			delay = retry.Next()
			if a.registered.Swap(false) {
				a.Log.Warn("heartbeat failed, deregistered", "err", err, "retry_in", delay)
			}
		} else {
			retry.Reset()
			if !a.registered.Swap(true) {
				a.Log.Info("registered with coordinator", "coordinator", a.Coordinator, "id", a.ID)
			}
		}
		timer.Reset(delay)
		select {
		case <-ctx.Done():
			return
		case <-timer.C:
		}
	}
}

// Deregister tells the coordinator this worker is draining: its registry
// entry drops immediately and its jobs re-route (with resume pointers into
// the drained checkpoints) without waiting out the heartbeat TTL. Called by
// placerd after its manager finishes the shutdown drain; ctx bounds the
// goodbye so a dead coordinator cannot stall the exit.
func (a *Agent) Deregister(ctx context.Context) error {
	client := a.Client
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	a.registered.Store(false)
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete,
		a.Coordinator+"/v1/workers/"+url.PathEscape(a.ID), nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
		return fmt.Errorf("fleet: deregister: %w", &StatusError{Code: resp.StatusCode})
	}
	a.Log.Info("deregistered from coordinator", "coordinator", a.Coordinator, "id", a.ID)
	return nil
}

// beat posts one heartbeat.
func (a *Agent) beat(ctx context.Context, client *http.Client) error {
	hb := Heartbeat{ID: a.ID, URL: a.URL, DataDir: a.DataDir}
	if a.Stats != nil {
		hb.Stats = a.Stats()
	}
	body, err := json.Marshal(hb)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		a.Coordinator+"/v1/workers/heartbeat", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fleet: heartbeat status %d", resp.StatusCode)
	}
	return nil
}
