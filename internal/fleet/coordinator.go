package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/service/telemetry"
)

// ErrSaturated means admission passed but no worker could take the job and
// the coordinator's pending queue is full. Mapped to 429 + Retry-After.
var ErrSaturated = errors.New("fleet: cluster is saturated")

// ErrUnknownJob mirrors the worker-side error for the fleet job table.
var ErrUnknownJob = errors.New("fleet: unknown job")

// Config tunes a Coordinator.
type Config struct {
	// HeartbeatTTL is how long a worker stays live without a heartbeat
	// (default 5s). Expiry is the failure detector: jobs on an expired
	// worker are re-routed.
	HeartbeatTTL time.Duration
	// PendingLimit bounds the coordinator-side queue of admitted jobs
	// waiting for fleet capacity (default 256).
	PendingLimit int
	// Retention caps retained terminal job records (default 1024).
	Retention int
	// Admission is the multi-tenant admission controller; nil admits
	// everything (a zero-valued policy for every tenant).
	Admission *Admission
	// Telemetry receives fleet metrics; nil allocates a private collector.
	Telemetry *telemetry.FleetCollector
	// Log receives coordinator events; nil disables logging.
	Log *obs.Logger
	// Client is the HTTP client for worker control calls (submit, status,
	// cancel); nil uses a 10-second-timeout default. Trajectory streaming
	// uses a separate timeout-free client bound to the request context.
	Client *http.Client
	// Now is the clock (tests inject a fake one); nil uses time.Now.
	Now func() time.Time
	// JournalPath, when non-empty, enables the crash-safe job journal: every
	// accepted/assigned/rerouted/terminal transition is appended (CRC-framed,
	// fsynced) and replayed at boot, so a coordinator restart loses no
	// accepted job. Empty keeps the coordinator purely in-memory.
	JournalPath string
	// DispatchRetries is how many extra attempts a retryable dispatch error
	// gets on the same worker before moving to the next candidate (default 1).
	DispatchRetries int
	// DispatchBackoff is the base delay of the jittered backoff between
	// dispatch retries (default 50ms; tests shrink it).
	DispatchBackoff time.Duration
	// BreakerThreshold is how many consecutive failed calls trip a worker's
	// circuit breaker to "suspect" (default 3).
	BreakerThreshold int
	// BreakerReset is how long a suspect worker stays suspect with no
	// further failures before decaying back to live (default 30s).
	BreakerReset time.Duration
	// RecoveryGrace is how long after boot a journal-recovered assignment
	// waits for its worker to re-heartbeat before being treated as dead and
	// re-routed (default 2×HeartbeatTTL).
	RecoveryGrace time.Duration
	// Sleep is the dispatch-retry sleeper; nil uses time.Sleep (tests
	// inject a no-op so retries don't slow the suite).
	Sleep func(time.Duration)
}

// fleetJob is the coordinator's record of one submitted job. All mutable
// fields are guarded by the coordinator's mu; assignment transitions happen
// on the submit path (fresh records) or inside Tick, never concurrently for
// the same record.
type fleetJob struct {
	id        string
	tenant    string
	class     Class
	spec      service.JobSpec
	key       uint64
	submitted time.Time
	idemKey   string // client idempotency key ("" = none)

	state       string // "pending" until assigned, then the worker-reported state
	worker      string
	workerURL   string
	remoteID    string
	dataDir     string // assigned worker's durable store root (journaled for post-crash reroute)
	last        *service.JobView
	affinityHit bool
	reroutes    int
	steals      int
	terminal    bool
	released    bool
	// recovered marks a journal-replayed assignment awaiting reconciliation:
	// re-adopted when its worker re-heartbeats, re-routed after the grace.
	recovered bool
}

// JobView is the fleet API's JSON snapshot of one job: coordinator routing
// metadata plus the latest proxied worker view.
type JobView struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	Class  string `json:"class"`
	// State is "pending" while the job waits for fleet capacity, then the
	// worker-reported lifecycle state (queued, running, done, ...).
	State    string `json:"state"`
	Worker   string `json:"worker,omitempty"`
	RemoteID string `json:"remote_id,omitempty"`
	// AffinityHit marks a submission routed to the worker already holding
	// checkpoints for the same spec.
	AffinityHit bool `json:"affinity_hit,omitempty"`
	// Reroutes counts moves off dead workers; Steals counts queue steals.
	Reroutes int `json:"reroutes,omitempty"`
	Steals   int `json:"steals,omitempty"`
	// Recovered marks a job reconstructed from the journal after a
	// coordinator restart and not yet reconciled with its worker.
	Recovered   bool             `json:"recovered,omitempty"`
	SubmittedAt time.Time        `json:"submitted_at"`
	Job         *service.JobView `json:"job,omitempty"`
}

// Coordinator owns the fleet: worker registry, router state, admission
// controller, and the job table mapping fleet job IDs to worker-local ones.
type Coordinator struct {
	cfg      Config
	reg      *Registry
	aff      *Affinity
	adm      *Admission
	tel      *telemetry.FleetCollector
	log      *obs.Logger
	client   *http.Client
	stream   *http.Client
	now      func() time.Time
	sleep    func(time.Duration)
	brk      *breakerSet
	journal  *Journal
	bootedAt time.Time
	dseed    atomic.Int64 // dispatch-retry jitter seeds

	mu      sync.Mutex
	jobs    map[string]*fleetJob
	order   []*fleetJob
	pending []*fleetJob
	idem    map[string]string // idempotency key -> fleet job ID
	seq     int64
}

// NewCoordinator builds a coordinator from cfg. With a JournalPath it also
// opens (or creates) the job journal and replays it: terminal jobs come back
// as history, pending jobs re-enter the dispatch queue, and assigned jobs
// wait for their worker to re-heartbeat (re-adoption) or for the recovery
// grace to lapse (re-route through the dead worker's checkpoints).
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if cfg.HeartbeatTTL <= 0 {
		cfg.HeartbeatTTL = 5 * time.Second
	}
	if cfg.PendingLimit <= 0 {
		cfg.PendingLimit = 256
	}
	if cfg.Retention <= 0 {
		cfg.Retention = 1024
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.NewFleetCollector()
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Admission == nil {
		cfg.Admission, _ = NewAdmission(TenantConfig{}, nil, cfg.Now) // zero policy never errors
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 10 * time.Second}
	}
	if cfg.DispatchRetries <= 0 {
		cfg.DispatchRetries = 1
	}
	if cfg.DispatchBackoff <= 0 {
		cfg.DispatchBackoff = 50 * time.Millisecond
	}
	if cfg.RecoveryGrace <= 0 {
		cfg.RecoveryGrace = 2 * cfg.HeartbeatTTL
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	c := &Coordinator{
		cfg:      cfg,
		reg:      NewRegistry(cfg.HeartbeatTTL),
		aff:      NewAffinity(0),
		adm:      cfg.Admission,
		tel:      cfg.Telemetry,
		log:      cfg.Log,
		client:   cfg.Client,
		stream:   &http.Client{},
		now:      cfg.Now,
		sleep:    cfg.Sleep,
		brk:      newBreakerSet(cfg.BreakerThreshold, cfg.BreakerReset, cfg.Now),
		bootedAt: cfg.Now(),
		jobs:     make(map[string]*fleetJob),
		idem:     make(map[string]string),
	}
	if cfg.JournalPath != "" {
		jr, recs, err := openJournal(cfg.JournalPath)
		if err != nil {
			return nil, fmt.Errorf("fleet: open journal: %w", err)
		}
		c.journal = jr
		c.recoverFromJournal(recs)
		// Compact immediately: the replayed history collapses to one
		// snapshot of the retained table. Held under c.mu like maybeCompact
		// (no concurrency exists yet at boot, but the invariant is uniform:
		// snapshot and swap are never separated by an append window).
		c.mu.Lock()
		err = jr.Compact(c.journalSnapshotLocked())
		c.mu.Unlock()
		if err != nil {
			return nil, fmt.Errorf("fleet: compact journal: %w", err)
		}
	}
	return c, nil
}

// Close releases the journal file handle (the coordinator itself has no
// background state beyond what Run's context owns).
func (c *Coordinator) Close() error {
	if c.journal != nil {
		return c.journal.Close()
	}
	return nil
}

// journalAppend appends one record, nil-safe and never fatal: a failed
// append on a non-accept record degrades durability (logged, counted), not
// availability. Callers holding c.mu may call it; the fsync happens at job
// granularity, far off any per-iteration hot path.
func (c *Coordinator) journalAppend(rec journalRecord) {
	if c.journal == nil {
		return
	}
	if err := c.journal.Append(rec); err != nil {
		c.log.Error("journal append failed", "kind", rec.Kind, "job", rec.Job, "err", err)
		return
	}
	c.tel.JournalRecords.Inc()
}

// recoverFromJournal folds replayed records back into the job table.
func (c *Coordinator) recoverFromJournal(recs []journalRecord) {
	c.mu.Lock()
	for _, rec := range recs {
		switch rec.Kind {
		case recMeta:
			if rec.Seq > c.seq {
				c.seq = rec.Seq
			}
		case recAccepted:
			if rec.Job == "" || rec.Spec == nil {
				continue
			}
			if _, dup := c.jobs[rec.Job]; dup {
				continue
			}
			class, _ := ParseClass(rec.Class)
			j := &fleetJob{
				id: rec.Job, tenant: rec.Tenant, class: class,
				spec: *rec.Spec, key: rec.Key, submitted: rec.Submitted,
				idemKey: rec.IdemKey, state: "pending",
			}
			c.jobs[j.id] = j
			c.order = append(c.order, j)
			if j.idemKey != "" {
				c.idem[j.idemKey] = j.id
			}
			var n int64
			if _, err := fmt.Sscanf(rec.Job, "fj-%d", &n); err == nil && n > c.seq {
				c.seq = n
			}
		case recAssigned:
			j := c.jobs[rec.Job]
			if j == nil {
				continue
			}
			j.worker, j.workerURL, j.remoteID, j.dataDir = rec.Worker, rec.WorkerURL, rec.RemoteID, rec.DataDir
			if rec.State != "" {
				j.state = rec.State
			} else {
				j.state = string(service.StateQueued)
			}
		case recRerouted:
			j := c.jobs[rec.Job]
			if j == nil {
				continue
			}
			if rec.ResumeDir != "" {
				j.spec.Resume = &service.ResumeSpec{Dir: rec.ResumeDir}
			}
			j.worker, j.workerURL, j.remoteID, j.dataDir = "", "", "", ""
			j.state = "pending"
			j.reroutes++
		case recTerminal:
			j := c.jobs[rec.Job]
			if j == nil {
				continue
			}
			if rec.State == "rejected" {
				// A saturation 429 revoked this accept: it never existed as
				// far as the client knows. Drop it and free its key.
				if j.idemKey != "" {
					delete(c.idem, j.idemKey)
				}
				delete(c.jobs, j.id)
				c.removeFromOrderLocked(j)
				continue
			}
			j.terminal = true
			j.released = true // admission state is fresh after a restart
			if rec.State != "" {
				j.state = rec.State
			}
		}
	}
	recovered := 0
	var assigned []*fleetJob
	for _, j := range c.order {
		if j.terminal {
			continue
		}
		recovered++
		// Re-occupy the tenant's quota slot (without charging its rate
		// bucket) so the fresh admission state matches the recovered load.
		c.adm.Adopt(j.tenant)
		j.released = false
		if j.worker == "" {
			// Accepted or rerouted but unplaced: straight back into the
			// dispatch queue. Recovery may exceed PendingLimit — accepted
			// jobs are never dropped at boot.
			c.pending = append(c.pending, j)
		} else {
			j.recovered = true
			assigned = append(assigned, j)
		}
	}
	c.mu.Unlock()
	for _, j := range assigned {
		c.aff.Set(j.key, j.worker)
	}
	c.tel.JournalReplays.Add(int64(len(recs)))
	c.tel.JobsRecovered.Add(int64(recovered))
	if len(recs) > 0 {
		c.log.Info("journal replayed", "records", len(recs),
			"jobs", len(c.jobs), "recovered", recovered, "assigned", len(assigned))
	}
}

// journalSnapshotLocked re-serializes the retained job table as a compact
// journal: per job, an accepted record plus assigned/terminal records as
// applicable (reroute history is already baked into the stored spec).
func (c *Coordinator) journalSnapshotLocked() []journalRecord {
	recs := make([]journalRecord, 0, 1+2*len(c.order))
	recs = append(recs, journalRecord{Kind: recMeta, Seq: c.seq})
	for _, j := range c.order {
		spec := j.spec
		recs = append(recs, journalRecord{
			Kind: recAccepted, Job: j.id, Tenant: j.tenant,
			Class: j.class.String(), IdemKey: j.idemKey, Key: j.key,
			Spec: &spec, Submitted: j.submitted,
		})
		if j.worker != "" {
			recs = append(recs, journalRecord{
				Kind: recAssigned, Job: j.id, Worker: j.worker,
				WorkerURL: j.workerURL, RemoteID: j.remoteID,
				DataDir: j.dataDir, State: j.state,
			})
		}
		if j.terminal {
			recs = append(recs, journalRecord{Kind: recTerminal, Job: j.id, State: j.state})
		}
	}
	return recs
}

// maybeCompact rewrites the journal once the appended history sufficiently
// outgrows the live table, keeping replay cost bounded during long soaks.
//
// The snapshot and the file swap run under one critical section: a record
// fsynced into the old file after the snapshot was taken would be silently
// discarded by the rename, losing an acked transition. Holding c.mu across
// Compact closes that window — every append either runs under c.mu itself
// (serialized after the swap, landing in the new file) or is SubmitIdem's
// accepted record, whose job was inserted into the table under c.mu before
// the append: the snapshot already carries it, and if its append races into
// the new file anyway, the duplicate accepted record is deduped at replay.
// Compaction is rare (history > 4× live table), so the fsync held under the
// lock stays off the hot path.
func (c *Coordinator) maybeCompact() {
	if c.journal == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.journal.AppendedSinceCompact() <= 4*len(c.order)+64 {
		return
	}
	if err := c.journal.Compact(c.journalSnapshotLocked()); err != nil {
		c.log.Error("journal compaction failed", "err", err)
	}
}

// Telemetry returns the coordinator's metrics collector.
func (c *Coordinator) Telemetry() *telemetry.FleetCollector { return c.tel }

// Registry returns the worker registry (tests and the status endpoint).
func (c *Coordinator) Registry() *Registry { return c.reg }

// Run drives the background maintenance loop (expiry/re-route, state sync,
// pending dispatch, work stealing) every interval until ctx ends.
func (c *Coordinator) Run(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			c.Tick(c.now())
		}
	}
}

// Tick runs one maintenance pass at the given time. Exposed so tests drive
// the fleet deterministically without a background goroutine.
func (c *Coordinator) Tick(now time.Time) {
	c.expireAndReroute(now)
	c.reconcileRecovered(now)
	c.syncWorkers()
	c.dispatchPending()
	c.stealOnce(now)
	c.tel.WorkersLive.Set(int64(len(c.reg.Live(now))))
	c.tel.WorkersSuspect.Set(int64(c.brk.Suspects()))
	c.publishWorkerHealth(now)
	c.mu.Lock()
	c.tel.JobsPending.Set(int64(len(c.pending)))
	c.pruneLocked()
	c.mu.Unlock()
	c.maybeCompact()
}

// reconcileRecovered settles journal-recovered assignments: a worker that
// re-heartbeated re-adopts its jobs (syncWorkers folds the live state), and
// a worker still absent once the recovery grace lapses is treated as dead —
// its jobs re-route with a resume pointer into the journaled durable store,
// the same warm-start handoff as TTL expiry.
func (c *Coordinator) reconcileRecovered(now time.Time) {
	var orphans []*fleetJob
	c.mu.Lock()
	for _, j := range c.order {
		if !j.recovered || j.terminal {
			continue
		}
		if j.worker == "" {
			j.recovered = false
			continue
		}
		if _, live := c.reg.Get(j.worker, now); live {
			j.recovered = false
			c.log.Info("recovered job re-adopted", "job", j.id, "worker", j.worker)
			continue
		}
		if now.Sub(c.bootedAt) < c.cfg.RecoveryGrace {
			continue
		}
		if j.dataDir != "" && j.remoteID != "" {
			dir := filepath.Join(j.dataDir, "jobs", j.remoteID, "checkpoints")
			j.spec.Resume = &service.ResumeSpec{Dir: dir}
		}
		c.aff.Drop(j.key)
		j.worker, j.workerURL, j.remoteID, j.dataDir = "", "", "", ""
		j.state = "pending"
		j.reroutes++
		j.recovered = false
		c.journalAppend(rerouteRecord(j))
		orphans = append(orphans, j)
	}
	c.mu.Unlock()
	for _, j := range orphans {
		c.tel.JobsRerouted.Inc()
		c.log.Warn("recovered worker never returned, rerouting job",
			"job", j.id, "resume", j.spec.Resume != nil)
		if !c.assign(j) {
			c.enqueuePending(j)
		}
	}
}

// rerouteRecord builds the journal record for a job whose assignment was
// just cleared (call with c.mu held, after mutating the job).
func rerouteRecord(j *fleetJob) journalRecord {
	rec := journalRecord{Kind: recRerouted, Job: j.id}
	if j.spec.Resume != nil {
		rec.ResumeDir = j.spec.Resume.Dir
	}
	return rec
}

// publishWorkerHealth refreshes the per-worker liveness gauges on /metrics
// (heartbeat age, live flag, reported load) from the registry snapshot.
func (c *Coordinator) publishWorkerHealth(now time.Time) {
	snap := c.reg.Snapshot()
	ws := make([]telemetry.WorkerHealth, 0, len(snap))
	for _, s := range snap {
		age := now.Sub(s.LastSeen)
		ws = append(ws, telemetry.WorkerHealth{
			ID:         s.ID,
			AgeSeconds: max(age.Seconds(), 0),
			Live:       age <= c.cfg.HeartbeatTTL,
			Suspect:    c.brk.Suspect(s.ID),
			QueueDepth: s.Stats.QueueDepth,
			Running:    s.Stats.Running,
		})
	}
	c.tel.SetWorkerHealth(ws)
}

// RecordHeartbeat folds one worker report into the registry.
func (c *Coordinator) RecordHeartbeat(hb Heartbeat, now time.Time) error {
	if hb.ID == "" || hb.URL == "" {
		return fmt.Errorf("fleet: heartbeat needs id and url")
	}
	if c.reg.Update(hb, now) {
		c.log.Info("worker registered", "worker", hb.ID, "url", hb.URL,
			"place_workers", hb.Stats.PlaceWorkers, "data_dir", hb.DataDir)
	}
	c.tel.Heartbeats.Inc()
	return nil
}

// Submit admits and routes one job. On rejection it returns a non-zero
// retry-after hint with ErrRateLimited, ErrQuotaExhausted, or ErrSaturated;
// the HTTP layer maps all three to 429 + Retry-After.
func (c *Coordinator) Submit(spec service.JobSpec, tenant string) (JobView, time.Duration, error) {
	return c.SubmitIdem(spec, tenant, "")
}

// SubmitIdem is Submit with a client-supplied idempotency key: a retried
// submit carrying a key the coordinator has already accepted (this boot or,
// via the journal, any previous one) returns the existing job instead of
// creating a duplicate — the property that makes blind submit retries safe
// across coordinator crashes.
func (c *Coordinator) SubmitIdem(spec service.JobSpec, tenant, idemKey string) (JobView, time.Duration, error) {
	if tenant == "" {
		tenant = "default"
	}
	if err := spec.Validate(""); err != nil {
		return JobView{}, 0, fmt.Errorf("%w: %v", service.ErrSpecRejected, err)
	}
	if idemKey != "" {
		// Fast-path dedupe before admission so a retry is not charged
		// against the tenant's rate bucket. The authoritative check runs
		// again under the lock below (two concurrent retries).
		c.mu.Lock()
		j := c.idemJobLocked(idemKey)
		c.mu.Unlock()
		if j != nil {
			return c.view(j), 0, nil
		}
	}
	start := c.now()
	if after, err := c.adm.Admit(tenant); err != nil {
		c.tel.JobsRejected.Inc()
		return JobView{}, after, err
	}
	key := SpecKey(spec)
	if spec.Parent != "" {
		// ECO child: adopt the parent's routing key so rendezvous ranking and
		// the affinity map steer the child at the worker holding the parent's
		// cached placement. The parent reference itself stays fleet-level in
		// the stored spec — it is resolved to the parent's worker-local job ID
		// per dispatch (see dispatchSpec), because that name only means
		// anything on the parent's own worker. An unknown parent changes
		// nothing (the child routes by its own key and cold-starts).
		c.mu.Lock()
		if p, ok := c.jobs[spec.Parent]; ok {
			key = p.key
			c.mu.Unlock()
			c.tel.ParentRoutes.Inc()
		} else {
			c.mu.Unlock()
		}
	}
	c.mu.Lock()
	if idemKey != "" {
		if dup := c.idemJobLocked(idemKey); dup != nil {
			c.mu.Unlock()
			c.adm.Release(tenant) // give back the slot this retry charged
			return c.view(dup), 0, nil
		}
	}
	c.seq++
	j := &fleetJob{
		id:        fmt.Sprintf("fj-%06d", c.seq),
		tenant:    tenant,
		class:     c.adm.Class(tenant),
		spec:      spec,
		key:       key,
		submitted: start,
		state:     "pending",
		idemKey:   idemKey,
	}
	c.jobs[j.id] = j
	c.order = append(c.order, j)
	if idemKey != "" {
		c.idem[idemKey] = j.id
	}
	c.mu.Unlock()
	// The accept must be durable before it is acknowledged: a journal that
	// cannot record the job refuses it (the client retries against a
	// coordinator that can uphold the no-loss guarantee).
	if c.journal != nil {
		specCopy := spec
		rec := journalRecord{
			Kind: recAccepted, Job: j.id, Tenant: tenant,
			Class: j.class.String(), IdemKey: idemKey, Key: key,
			Spec: &specCopy, Submitted: start,
		}
		if err := c.journal.Append(rec); err != nil {
			c.mu.Lock()
			delete(c.jobs, j.id)
			c.removeFromOrderLocked(j)
			if idemKey != "" {
				delete(c.idem, idemKey)
			}
			// Best-effort revocation: if a compaction snapshotted the job
			// between the insert and this failed append, only a surviving
			// "rejected" record keeps it from resurrecting at replay. With
			// the journal truly dead this append fails too, harmlessly.
			c.journalAppend(journalRecord{Kind: recTerminal, Job: j.id, State: "rejected"})
			c.mu.Unlock()
			c.adm.Release(tenant)
			c.tel.JobsRejected.Inc()
			c.log.Error("journal append failed, refusing job", "err", err)
			return JobView{}, 0, fmt.Errorf("fleet: journal accept: %w", err)
		}
		c.tel.JournalRecords.Inc()
	}
	c.tel.JobsSubmitted.Inc()

	if c.assign(j) {
		c.tel.SubmitSeconds.Observe(c.now().Sub(start).Seconds())
		return c.view(j), 0, nil
	}
	// No worker took it: hold the job in the coordinator's pending queue if
	// there is room, else push back on the client.
	c.mu.Lock()
	if len(c.pending) >= c.cfg.PendingLimit {
		delete(c.jobs, j.id)
		c.removeFromOrderLocked(j)
		if idemKey != "" {
			delete(c.idem, idemKey)
		}
		// "rejected" tells replay this accept was revoked with a 429 — the
		// job must not resurrect and its idempotency key must free up.
		c.journalAppend(journalRecord{Kind: recTerminal, Job: j.id, State: "rejected"})
		c.mu.Unlock()
		c.adm.Release(tenant)
		c.tel.JobsRejected.Inc()
		return JobView{}, 2 * time.Second, ErrSaturated
	}
	c.pending = append(c.pending, j)
	c.tel.JobsPending.Set(int64(len(c.pending)))
	c.mu.Unlock()
	c.log.Info("job pending", "job", j.id, "tenant", tenant)
	return c.view(j), 0, nil
}

// removeFromOrderLocked drops exactly j from the submission-order slice
// (call with c.mu held). Removal is by identity, never by truncating the
// tail: the rollback paths release c.mu between inserting a job and
// deciding to revoke it, so a concurrent Submit may have appended other
// jobs behind it in the meantime.
func (c *Coordinator) removeFromOrderLocked(j *fleetJob) {
	for i, o := range c.order {
		if o == j {
			c.order = append(c.order[:i], c.order[i+1:]...)
			return
		}
	}
}

// idemJobLocked resolves an idempotency key to its retained job (nil when
// unknown or already pruned from retention).
func (c *Coordinator) idemJobLocked(idemKey string) *fleetJob {
	if id, ok := c.idem[idemKey]; ok {
		return c.jobs[id]
	}
	return nil
}

// Get returns one job's fleet view, refreshing it from the worker when the
// job is assigned and not yet known-terminal.
func (c *Coordinator) Get(id string) (JobView, error) {
	c.mu.Lock()
	j, ok := c.jobs[id]
	var url, remote string
	var refresh bool
	if ok {
		url, remote = j.workerURL, j.remoteID
		refresh = j.worker != "" && !j.terminal
	}
	c.mu.Unlock()
	if !ok {
		return JobView{}, ErrUnknownJob
	}
	if refresh {
		if v, err := c.getRemote(url, remote); err == nil {
			c.mu.Lock()
			c.updateFromWorkerLocked(j, v)
			c.mu.Unlock()
		} else {
			c.tel.ProxyErrors.Inc()
		}
	}
	return c.view(j), nil
}

// Cancel cancels a job: pending jobs die in the coordinator, assigned ones
// are cancelled on their worker.
func (c *Coordinator) Cancel(id string) (JobView, error) {
	c.mu.Lock()
	j, ok := c.jobs[id]
	var assigned bool
	var url, remote string
	if ok {
		assigned = j.worker != ""
		url, remote = j.workerURL, j.remoteID
		if !assigned && !j.terminal {
			j.terminal = true
			j.state = "cancelled"
			c.releaseLocked(j)
			c.dropPendingLocked(j)
			c.journalAppend(journalRecord{Kind: recTerminal, Job: j.id, State: j.state})
		}
	}
	c.mu.Unlock()
	if !ok {
		return JobView{}, ErrUnknownJob
	}
	if assigned {
		if v, err := c.cancelRemote(url, remote); err == nil {
			c.mu.Lock()
			c.updateFromWorkerLocked(j, v)
			c.mu.Unlock()
		} else {
			c.tel.ProxyErrors.Inc()
		}
	}
	return c.view(j), nil
}

// List returns every retained job in submission order.
func (c *Coordinator) List() []JobView {
	c.mu.Lock()
	jobs := append([]*fleetJob(nil), c.order...)
	c.mu.Unlock()
	out := make([]JobView, len(jobs))
	for i, j := range jobs {
		out[i] = c.view(j)
	}
	return out
}

// Status builds the GET /v1/fleet document.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	pending := len(c.pending)
	c.mu.Unlock()
	return Status{
		Workers: c.reg.Snapshot(),
		Pending: pending,
		Counters: Counters{
			Submitted:    c.tel.JobsSubmitted.Value(),
			Rejected:     c.tel.JobsRejected.Value(),
			Assigned:     c.tel.JobsAssigned.Value(),
			Rerouted:     c.tel.JobsRerouted.Value(),
			Stolen:       c.tel.JobsStolen.Value(),
			AffinityHits: c.tel.AffinityHits.Value(),
			ParentRoutes: c.tel.ParentRoutes.Value(),
			Heartbeats:   c.tel.Heartbeats.Value(),
			Recovered:    c.tel.JobsRecovered.Value(),
		},
	}
}

// Ready reports whether the fleet can serve: at least one live worker.
func (c *Coordinator) Ready() bool { return len(c.reg.Live(c.now())) > 0 }

// view snapshots a job under the lock.
func (c *Coordinator) view(j *fleetJob) JobView {
	c.mu.Lock()
	defer c.mu.Unlock()
	v := JobView{
		ID: j.id, Tenant: j.tenant, Class: j.class.String(),
		State: j.state, Worker: j.worker, RemoteID: j.remoteID,
		AffinityHit: j.affinityHit, Reroutes: j.reroutes, Steals: j.steals,
		Recovered: j.recovered, SubmittedAt: j.submitted,
	}
	if j.last != nil {
		lv := *j.last
		v.Job = &lv
	}
	return v
}

// releaseLocked returns the job's admission slot exactly once.
func (c *Coordinator) releaseLocked(j *fleetJob) {
	if !j.released {
		j.released = true
		c.adm.Release(j.tenant)
	}
}

// dropPendingLocked removes a job from the pending slice.
func (c *Coordinator) dropPendingLocked(j *fleetJob) {
	for i, p := range c.pending {
		if p == j {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			return
		}
	}
}

// updateFromWorkerLocked folds a proxied worker view into the record. Views
// are fetched outside c.mu, so one can arrive after another path already
// saw the job finish; a terminal job therefore ignores every later view and
// never regresses.
func (c *Coordinator) updateFromWorkerLocked(j *fleetJob, v service.JobView) {
	if j.terminal {
		return
	}
	vv := v
	j.last = &vv
	j.state = string(v.State)
	if v.State.Terminal() {
		j.terminal = true
		c.releaseLocked(j)
		c.journalAppend(journalRecord{Kind: recTerminal, Job: j.id, State: j.state})
	}
}

// pruneLocked drops the oldest terminal records beyond the retention cap.
func (c *Coordinator) pruneLocked() {
	terminal := 0
	for _, j := range c.order {
		if j.terminal {
			terminal++
		}
	}
	drop := terminal - c.cfg.Retention
	if drop <= 0 {
		return
	}
	kept := c.order[:0]
	for _, j := range c.order {
		if drop > 0 && j.terminal {
			delete(c.jobs, j.id)
			if j.idemKey != "" {
				delete(c.idem, j.idemKey)
			}
			drop--
			continue
		}
		kept = append(kept, j)
	}
	c.order = kept
}

// parentPlacement resolves an ECO child's parent to its current (worker,
// worker-local job ID) placement, or empty strings when the parent is
// unknown or not assigned anywhere.
func (c *Coordinator) parentPlacement(j *fleetJob) (worker, remote string) {
	if j.spec.Parent == "" {
		return "", ""
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.jobs[j.spec.Parent]; ok {
		return p.worker, p.remoteID
	}
	return "", ""
}

// dispatchSpec renders j's spec for one specific worker. The parent
// reference is worker-local: it is rewritten to the parent's remote job ID
// only when the job is posted to the worker actually holding the parent,
// and dropped everywhere else — a foreign worker could not resolve the
// fleet-level name, and must never resolve it to an unrelated job that
// happens to share the ID in its local table.
func dispatchSpec(j *fleetJob, workerID, pWorker, pRemote string) service.JobSpec {
	spec := j.spec
	if spec.Parent == "" {
		return spec
	}
	if pRemote != "" && workerID == pWorker {
		spec.Parent = pRemote
	} else {
		spec.Parent = ""
	}
	return spec
}

// assign routes one unassigned job: the worker holding its ECO parent
// first (that node serves the warm start), then the checkpoint-affinity
// worker (when live), then every live worker in rendezvous order, until
// one accepts. Returns false when nobody can take the job right now.
func (c *Coordinator) assign(j *fleetJob) bool {
	now := c.now()
	live := c.reg.Live(now)
	if len(live) == 0 {
		return false
	}
	pWorker, pRemote := c.parentPlacement(j)
	var cands []Heartbeat
	seen := make(map[string]bool)
	if pWorker != "" {
		if hb, live := c.reg.Get(pWorker, now); live {
			cands = append(cands, hb)
			seen[pWorker] = true
		}
	}
	affine := ""
	if wid, ok := c.aff.Get(j.key); ok {
		affine = wid // may coincide with pWorker; affinityHit still counts
		if hb, live := c.reg.Get(wid, now); live && !seen[wid] {
			cands = append(cands, hb)
			seen[wid] = true
		}
	}
	for _, hb := range Rank(j.key, live) {
		if !seen[hb.ID] {
			cands = append(cands, hb)
		}
	}
	// Suspect workers (breaker open) sink to the end of the candidate list:
	// healthy nodes absorb the load, and when only suspects remain each
	// dispatch doubles as a half-open probe that can close the breaker.
	sort.SliceStable(cands, func(a, b int) bool {
		return !c.brk.Suspect(cands[a].ID) && c.brk.Suspect(cands[b].ID)
	})
	for _, hb := range cands {
		rv, busy, err := c.postJob(hb, dispatchSpec(j, hb.ID, pWorker, pRemote))
		if err != nil {
			if !busy {
				c.tel.ProxyErrors.Inc()
			}
			continue
		}
		c.mu.Lock()
		if j.terminal {
			// Cancelled while the dispatch was in flight: the worker copy
			// is an orphan the fleet no longer tracks — cancel it there
			// rather than let a cancelled job burn a worker slot.
			c.mu.Unlock()
			if _, cerr := c.cancelRemote(hb.URL, rv.ID); cerr != nil {
				c.tel.ProxyErrors.Inc()
			}
			c.log.Info("dispatch raced cancel, revoked on worker",
				"job", j.id, "worker", hb.ID, "remote", rv.ID)
			return true
		}
		j.worker, j.workerURL, j.remoteID, j.dataDir = hb.ID, hb.URL, rv.ID, hb.DataDir
		c.updateFromWorkerLocked(j, rv)
		if hb.ID == affine {
			j.affinityHit = true
		}
		c.journalAppend(journalRecord{
			Kind: recAssigned, Job: j.id, Worker: hb.ID, WorkerURL: hb.URL,
			RemoteID: rv.ID, DataDir: hb.DataDir, State: j.state,
		})
		c.mu.Unlock()
		if hb.ID == affine {
			c.tel.AffinityHits.Inc()
		}
		c.aff.Set(j.key, hb.ID)
		c.tel.JobsAssigned.Inc()
		c.log.Info("job assigned", "job", j.id, "tenant", j.tenant, "worker", hb.ID,
			"remote", rv.ID, "affinity", hb.ID == affine, "reroutes", j.reroutes)
		return true
	}
	return false
}

// expireAndReroute removes workers past their heartbeat TTL and re-routes
// their unfinished jobs. When the dead worker advertised a reachable
// DataDir, the resubmitted spec carries a resume pointer at its checkpoint
// directory, so the new node warm-starts from the latest snapshot instead
// of replaying the whole run (fingerprint mismatches cold-start safely).
func (c *Coordinator) expireAndReroute(now time.Time) {
	dead := c.reg.Expire(now)
	if len(dead) == 0 {
		return
	}
	byID := make(map[string]Heartbeat, len(dead))
	for _, hb := range dead {
		byID[hb.ID] = hb
		c.brk.Forget(hb.ID)
		c.log.Warn("worker expired", "worker", hb.ID, "url", hb.URL)
	}
	c.rerouteOffWorkers(byID)
}

// DeregisterWorker handles a worker's graceful goodbye (placerd drain on
// SIGTERM): the worker is removed from the registry immediately — no TTL
// wait — and its jobs re-route through the same checkpoint handoff as
// expiry, warm-starting from whatever the drain persisted.
func (c *Coordinator) DeregisterWorker(id string) bool {
	hb, ok := c.reg.Remove(id)
	if !ok {
		return false
	}
	c.brk.Forget(id)
	c.log.Info("worker deregistered", "worker", id, "url", hb.URL)
	c.rerouteOffWorkers(map[string]Heartbeat{id: hb})
	return true
}

// rerouteOffWorkers moves every unfinished job off the given (gone) workers.
func (c *Coordinator) rerouteOffWorkers(byID map[string]Heartbeat) {
	var orphans []*fleetJob
	c.mu.Lock()
	for _, j := range c.order {
		if j.terminal || j.worker == "" {
			continue
		}
		hb, isDead := byID[j.worker]
		if !isDead {
			continue
		}
		if hb.DataDir != "" && j.remoteID != "" {
			dir := filepath.Join(hb.DataDir, "jobs", j.remoteID, "checkpoints")
			j.spec.Resume = &service.ResumeSpec{Dir: dir}
		}
		c.aff.Drop(j.key)
		j.worker, j.workerURL, j.remoteID, j.dataDir = "", "", "", ""
		j.state = "pending"
		j.reroutes++
		j.recovered = false
		c.journalAppend(rerouteRecord(j))
		orphans = append(orphans, j)
	}
	c.mu.Unlock()
	for _, j := range orphans {
		c.tel.JobsRerouted.Inc()
		c.log.Info("rerouting job off dead worker", "job", j.id, "resume", j.spec.Resume != nil)
		if !c.assign(j) {
			c.enqueuePending(j)
		}
	}
}

// enqueuePending parks an unassignable job in the pending queue (dropping
// it with a released quota slot only if the queue is full).
func (c *Coordinator) enqueuePending(j *fleetJob) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.pending) >= c.cfg.PendingLimit {
		j.terminal = true
		j.state = "failed"
		c.releaseLocked(j)
		c.journalAppend(journalRecord{Kind: recTerminal, Job: j.id, State: j.state})
		c.log.Warn("pending queue full, dropping job", "job", j.id)
		return
	}
	c.pending = append(c.pending, j)
}

// syncWorkers polls each live worker's job list, folds the states into the
// fleet job table (releasing admission slots on terminal transitions), and
// re-routes jobs the worker no longer knows (e.g. a worker that restarted
// without a durable store).
func (c *Coordinator) syncWorkers() {
	now := c.now()
	for _, hb := range c.reg.Live(now) {
		views, err := c.listRemote(hb.URL)
		if err != nil {
			c.tel.ProxyErrors.Inc()
			c.brk.Failure(hb.ID)
			continue
		}
		c.brk.Success(hb.ID)
		byID := make(map[string]service.JobView, len(views))
		for _, v := range views {
			byID[v.ID] = v
		}
		var lost []*fleetJob
		c.mu.Lock()
		for _, j := range c.order {
			if j.terminal || j.worker != hb.ID {
				continue
			}
			v, ok := byID[j.remoteID]
			if !ok {
				j.worker, j.workerURL, j.remoteID, j.dataDir = "", "", "", ""
				j.state = "pending"
				j.reroutes++
				j.recovered = false
				c.journalAppend(rerouteRecord(j))
				lost = append(lost, j)
				continue
			}
			j.recovered = false
			c.updateFromWorkerLocked(j, v)
		}
		c.mu.Unlock()
		for _, j := range lost {
			c.tel.JobsRerouted.Inc()
			c.log.Warn("worker forgot job, rerouting", "job", j.id, "worker", hb.ID)
			if !c.assign(j) {
				c.enqueuePending(j)
			}
		}
	}
}

// dispatchPending retries parked jobs, highest priority class first (FIFO
// within a class). Each job gets one assignment attempt per tick.
func (c *Coordinator) dispatchPending() {
	c.mu.Lock()
	var batch []*fleetJob
	for _, j := range c.pending {
		if !j.terminal { // cancelled while pending
			batch = append(batch, j)
		}
	}
	c.pending = nil
	c.mu.Unlock()
	if len(batch) == 0 {
		return
	}
	sort.SliceStable(batch, func(a, b int) bool { return batch[a].class < batch[b].class })
	var still []*fleetJob
	for _, j := range batch {
		if !c.assign(j) {
			still = append(still, j)
		}
	}
	c.mu.Lock()
	c.pending = append(still, c.pending...)
	c.mu.Unlock()
}

// stealOnce moves queued work from hot workers onto idle ones: for every
// idle worker (free run slots, empty queue) it picks the highest-priority,
// oldest fleet job queued on a busy worker, cancels it there with the
// steal-safe ?if=queued cancel (never touching a running placement), and
// resubmits it to the idle worker. Stale heartbeat stats are harmless: the
// worker-side conditional cancel arbitrates races.
func (c *Coordinator) stealOnce(now time.Time) {
	live := c.reg.Live(now)
	var idle []Heartbeat
	hot := make(map[string]bool)
	for _, hb := range live {
		switch {
		case hb.Stats.Running < hb.Stats.PlaceWorkers && hb.Stats.QueueDepth == 0:
			idle = append(idle, hb)
		case hb.Stats.QueueDepth > 0:
			hot[hb.ID] = true
		}
	}
	if len(idle) == 0 || len(hot) == 0 {
		return
	}
	// Steal candidates: fleet jobs sitting in a hot worker's queue, best
	// class first, oldest first.
	c.mu.Lock()
	var cands []*fleetJob
	for _, j := range c.order {
		if !j.terminal && j.worker != "" && hot[j.worker] && j.state == string(service.StateQueued) {
			cands = append(cands, j)
		}
	}
	c.mu.Unlock()
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].class < cands[b].class })
	for _, target := range idle {
		if len(cands) == 0 {
			return
		}
		j := cands[0]
		cands = cands[1:]
		if !c.stealTo(j, target) {
			continue
		}
	}
}

// stealTo moves one queued job onto the target worker. Returns false when
// the steal was abandoned (the job started running, finished, or vanished
// in the meantime — all safe outcomes).
func (c *Coordinator) stealTo(j *fleetJob, target Heartbeat) bool {
	c.mu.Lock()
	url, remote := j.workerURL, j.remoteID
	c.mu.Unlock()
	if ok, err := c.cancelQueuedRemote(url, remote); err != nil {
		c.tel.ProxyErrors.Inc()
		return false
	} else if !ok {
		return false // already running or gone; leave it be
	}
	// The source accepted the conditional cancel: the job now runs nowhere
	// and must be re-homed (the target, or anyone, or the pending queue).
	c.mu.Lock()
	j.worker, j.workerURL, j.remoteID, j.dataDir = "", "", "", ""
	j.state = "pending"
	c.journalAppend(rerouteRecord(j))
	c.mu.Unlock()
	pWorker, pRemote := c.parentPlacement(j)
	rv, _, err := c.postJob(target, dispatchSpec(j, target.ID, pWorker, pRemote))
	if err != nil {
		if !c.assign(j) {
			c.enqueuePending(j)
		}
		return true
	}
	c.mu.Lock()
	j.worker, j.workerURL, j.remoteID, j.dataDir = target.ID, target.URL, rv.ID, target.DataDir
	c.updateFromWorkerLocked(j, rv)
	j.steals++
	c.journalAppend(journalRecord{
		Kind: recAssigned, Job: j.id, Worker: target.ID, WorkerURL: target.URL,
		RemoteID: rv.ID, DataDir: target.DataDir, State: j.state,
	})
	c.mu.Unlock()
	c.aff.Set(j.key, target.ID)
	c.tel.JobsStolen.Inc()
	c.log.Info("job stolen onto idle worker", "job", j.id, "worker", target.ID, "remote", rv.ID)
	return true
}

// --- worker HTTP calls -------------------------------------------------

// postJob submits a spec to a worker, with a short jittered retry on
// retryable failures (the worker may be mid-restart or behind a flaky link)
// and circuit-breaker accounting on the outcome. busy=true flags a 429/503
// (queue full or draining — try the next candidate, not a fault).
func (c *Coordinator) postJob(hb Heartbeat, spec service.JobSpec) (service.JobView, bool, error) {
	var retry *backoff.Backoff
	for attempt := 0; ; attempt++ {
		v, busy, err := c.postJobOnce(hb, spec)
		if err == nil {
			c.brk.Success(hb.ID)
			return v, false, nil
		}
		if busy {
			return v, true, err // pushback is load, not sickness
		}
		wasSuspect := c.brk.Suspect(hb.ID)
		if c.brk.Failure(hb.ID) && !wasSuspect {
			c.log.Warn("worker circuit breaker opened", "worker", hb.ID, "err", err)
		}
		if attempt >= c.cfg.DispatchRetries || !Retryable(err) {
			return v, false, err
		}
		if retry == nil {
			retry = backoff.New(c.cfg.DispatchBackoff, 0, c.dseed.Add(1))
		}
		c.sleep(retry.Next())
	}
}

// postJobOnce is one dispatch attempt.
func (c *Coordinator) postJobOnce(hb Heartbeat, spec service.JobSpec) (service.JobView, bool, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return service.JobView{}, false, err
	}
	resp, err := c.client.Post(hb.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return service.JobView{}, false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusAccepted:
		var v service.JobView
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			return service.JobView{}, false, err
		}
		return v, false, nil
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		return service.JobView{}, true, fmt.Errorf("fleet: worker %s busy (%d)", hb.ID, resp.StatusCode)
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return service.JobView{}, false, fmt.Errorf("fleet: worker %s rejected job: %w",
			hb.ID, &StatusError{Code: resp.StatusCode, Msg: string(msg)})
	}
}

// getRemote fetches one worker job view.
func (c *Coordinator) getRemote(base, id string) (service.JobView, error) {
	resp, err := c.client.Get(base + "/jobs/" + id)
	if err != nil {
		return service.JobView{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return service.JobView{}, fmt.Errorf("fleet: worker status %d", resp.StatusCode)
	}
	var v service.JobView
	err = json.NewDecoder(resp.Body).Decode(&v)
	return v, err
}

// listRemote fetches a worker's whole job table.
func (c *Coordinator) listRemote(base string) ([]service.JobView, error) {
	resp, err := c.client.Get(base + "/jobs")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fleet: worker list status %d", resp.StatusCode)
	}
	var out struct {
		Jobs []service.JobView `json:"jobs"`
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	return out.Jobs, err
}

// cancelRemote cancels a worker job unconditionally.
func (c *Coordinator) cancelRemote(base, id string) (service.JobView, error) {
	req, err := http.NewRequest(http.MethodDelete, base+"/jobs/"+id, nil)
	if err != nil {
		return service.JobView{}, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return service.JobView{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return service.JobView{}, fmt.Errorf("fleet: worker cancel status %d", resp.StatusCode)
	}
	var v service.JobView
	err = json.NewDecoder(resp.Body).Decode(&v)
	return v, err
}

// cancelQueuedRemote is the steal-safe conditional cancel: true only when
// the worker confirmed the job was still queued and is now cancelled.
func (c *Coordinator) cancelQueuedRemote(base, id string) (bool, error) {
	req, err := http.NewRequest(http.MethodDelete, base+"/jobs/"+id+"?if=queued", nil)
	if err != nil {
		return false, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	switch resp.StatusCode {
	case http.StatusOK:
		return true, nil
	case http.StatusConflict, http.StatusNotFound:
		return false, nil
	}
	return false, fmt.Errorf("fleet: conditional cancel status %d", resp.StatusCode)
}
