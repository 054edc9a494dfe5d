package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/durable"
)

// Store is the durable on-disk job store behind a Manager. Each job owns a
// directory under <root>/jobs/<id>/ holding its immutable spec, its latest
// status, and a rotating set of placement snapshots:
//
//	<root>/jobs/job-000001/spec.json
//	<root>/jobs/job-000001/status.json
//	<root>/jobs/job-000001/checkpoints/ckpt-000000050.ckpt
//
// All JSON writes go through durable.WriteFile (temp file, fsync, rename,
// directory fsync), so a crash or power cut at any point leaves every job
// either at its previous status or its next one. On boot the manager
// replays the store: finished jobs come back as inspectable history,
// interrupted ones are re-enqueued as warm-start resumes.
type Store struct {
	root string
}

// OpenStore opens (creating if needed) a job store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("service: store directory is empty")
	}
	if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		return nil, fmt.Errorf("service: open store: %w", err)
	}
	return &Store{root: dir}, nil
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

func (s *Store) jobDir(id string) string { return filepath.Join(s.root, "jobs", id) }

// CheckpointDir returns the directory placement snapshots for a job land in.
func (s *Store) CheckpointDir(id string) string {
	return filepath.Join(s.jobDir(id), "checkpoints")
}

// PersistedStatus is the durable view of one job's progress, updated on
// every state transition.
type PersistedStatus struct {
	State       State            `json:"state"`
	Design      string           `json:"design,omitempty"`
	Model       string           `json:"model,omitempty"`
	SubmittedAt time.Time        `json:"submitted_at"`
	StartedAt   time.Time        `json:"started_at"`
	FinishedAt  time.Time        `json:"finished_at"`
	Error       string           `json:"error,omitempty"`
	Result      *core.FlowResult `json:"result,omitempty"`
	// Resumes counts how many times the job was recovered after a daemon
	// restart (each recovery warm-starts from the latest snapshot).
	Resumes int `json:"resumes,omitempty"`
	// Guard carries the run's numerical-health guard summary, when it tripped.
	Guard *GuardStatus `json:"guard,omitempty"`
	// Cache is the placement-result cache outcome (hit, near_hit, miss).
	Cache string `json:"cache,omitempty"`
}

// PersistedJob pairs a job's spec with its last persisted status.
type PersistedJob struct {
	ID     string
	Spec   JobSpec
	Status PersistedStatus
}

// writeJSONFile durably writes v as JSON to path (see durable.WriteFile).
func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err == nil {
		err = durable.WriteFile(path, data)
	}
	if err != nil {
		return fmt.Errorf("service: store: %w", err)
	}
	return nil
}

// SaveSpec persists a job's immutable spec (written once at submit).
func (s *Store) SaveSpec(id string, spec JobSpec) error {
	if err := os.MkdirAll(s.jobDir(id), 0o755); err != nil {
		return fmt.Errorf("service: store: %w", err)
	}
	return writeJSONFile(filepath.Join(s.jobDir(id), "spec.json"), spec)
}

// LoadSpec loads one job's persisted spec. The ECO near-hit path uses it to
// rebuild a parent design whose job finished in an earlier daemon life (the
// in-memory job table only reaches back to the retention cap).
func (s *Store) LoadSpec(id string) (JobSpec, error) {
	var spec JobSpec
	if !readJSON(filepath.Join(s.jobDir(id), "spec.json"), &spec) {
		return JobSpec{}, fmt.Errorf("service: store: no spec for job %q", id)
	}
	return spec, nil
}

// SaveStatus persists a job's current status.
func (s *Store) SaveStatus(id string, st PersistedStatus) error {
	if err := os.MkdirAll(s.jobDir(id), 0o755); err != nil {
		return fmt.Errorf("service: store: %w", err)
	}
	return writeJSONFile(filepath.Join(s.jobDir(id), "status.json"), st)
}

// Delete removes a job's directory (spec, status, and snapshots).
func (s *Store) Delete(id string) error {
	return os.RemoveAll(s.jobDir(id))
}

// ArchiveSpec moves a job's spec into the spec archive
// (<root>/specarchive/<id>.json) before the job's directory is pruned, so
// the ECO near-hit path can still rebuild the design of a parent whose job
// record aged out of retention. The archive's lifetime is coupled to the
// placement-result cache — a parent is warm-startable exactly as long as
// its placement is cached — so the manager prunes it with the cache's
// entry bound (see PruneSpecArchive).
func (s *Store) ArchiveSpec(id string) error {
	dir := filepath.Join(s.root, "specarchive")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("service: store: %w", err)
	}
	if err := os.Rename(filepath.Join(s.jobDir(id), "spec.json"), filepath.Join(dir, id+".json")); err != nil {
		return fmt.Errorf("service: store: %w", err)
	}
	return nil
}

// LoadArchivedSpec loads a pruned job's archived spec. A successful load
// touches the file's mtime: PruneSpecArchive evicts by that timestamp, so
// a parent that keeps receiving ECO children stays archived while parents
// nobody references age out (least-recently-used, like the result cache).
func (s *Store) LoadArchivedSpec(id string) (JobSpec, error) {
	path := filepath.Join(s.root, "specarchive", id+".json")
	var spec JobSpec
	if !readJSON(path, &spec) {
		return JobSpec{}, fmt.Errorf("service: store: no archived spec for job %q", id)
	}
	now := time.Now()
	os.Chtimes(path, now, now) //nolint:errcheck // best-effort LRU touch
	return spec, nil
}

// PruneSpecArchive drops the least-recently-used archived specs (by
// modification time, refreshed on every LoadArchivedSpec) beyond the max
// bound. Best-effort: an unreadable entry is simply kept.
func (s *Store) PruneSpecArchive(max int) {
	dir := filepath.Join(s.root, "specarchive")
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) <= max {
		return
	}
	type rec struct {
		name string
		mod  time.Time
	}
	recs := make([]rec, 0, len(entries))
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			continue
		}
		recs = append(recs, rec{e.Name(), info.ModTime()})
	}
	sort.Slice(recs, func(a, b int) bool { return recs[a].mod.Before(recs[b].mod) })
	for i := 0; i < len(recs)-max; i++ {
		os.Remove(filepath.Join(dir, recs[i].name)) //nolint:errcheck // best-effort GC
	}
}

// LatestSnapshot loads the newest decodable placement snapshot of a job;
// checkpoint.ErrNoSnapshot when the job never checkpointed.
func (s *Store) LatestSnapshot(id string) (*checkpoint.Snapshot, error) {
	snap, _, err := checkpoint.LoadLatest(s.CheckpointDir(id))
	return snap, err
}

// Load scans the store and returns every persisted job, sorted by the
// numeric suffix of the job ID (submission order). Jobs whose spec or
// status files are unreadable or unparsable are skipped: recovery must
// proceed past any single corrupted record.
func (s *Store) Load() ([]PersistedJob, error) {
	entries, err := os.ReadDir(filepath.Join(s.root, "jobs"))
	if err != nil {
		return nil, fmt.Errorf("service: store: %w", err)
	}
	var jobs []PersistedJob
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		id := e.Name()
		var pj PersistedJob
		pj.ID = id
		if !readJSON(filepath.Join(s.jobDir(id), "spec.json"), &pj.Spec) {
			continue
		}
		if !readJSON(filepath.Join(s.jobDir(id), "status.json"), &pj.Status) {
			continue
		}
		jobs = append(jobs, pj)
	}
	sort.Slice(jobs, func(a, b int) bool { return jobSeq(jobs[a].ID) < jobSeq(jobs[b].ID) })
	return jobs, nil
}

// MaxSeq returns the largest numeric job-ID suffix present in the store, so
// a restarted manager never reissues an ID.
func (s *Store) MaxSeq() int64 {
	entries, err := os.ReadDir(filepath.Join(s.root, "jobs"))
	if err != nil {
		return 0
	}
	var max int64
	for _, e := range entries {
		if n := jobSeq(e.Name()); n > max {
			max = n
		}
	}
	return max
}

// jobSeq extracts the numeric suffix of "job-000123" (0 when malformed).
func jobSeq(id string) int64 {
	rest, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return 0
	}
	n, err := strconv.ParseInt(rest, 10, 64)
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// readJSON loads path into v, reporting success.
func readJSON(path string, v any) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		return false
	}
	return json.Unmarshal(data, v) == nil
}
