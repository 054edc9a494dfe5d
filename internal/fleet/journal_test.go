package fleet

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/faultinject"
	"repro/internal/service"
)

func testRecord(job string, seq int) journalRecord {
	spec := fastSpec(int64(seq))
	return journalRecord{
		Kind: recAccepted, Job: job, Tenant: "t1", Class: "batch",
		IdemKey: "k-" + job, Key: uint64(seq), Spec: &spec,
		Submitted: time.Unix(10000+int64(seq), 0).UTC(),
	}
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	j, recs, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	want := []journalRecord{
		testRecord("fj-000001", 1),
		{Kind: recAssigned, Job: "fj-000001", Worker: "wA", WorkerURL: "http://a", RemoteID: "r1", DataDir: "/data/wA", State: "running"},
		{Kind: recRerouted, Job: "fj-000001", ResumeDir: "/data/wA/jobs/r1/checkpoints"},
		{Kind: recTerminal, Job: "fj-000001", State: "done"},
	}
	for _, rec := range want {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if got := j.AppendedSinceCompact(); got != len(want) {
		t.Fatalf("AppendedSinceCompact = %d, want %d", got, len(want))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, got, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Kind != w.Kind || g.Job != w.Job || g.Worker != w.Worker ||
			g.ResumeDir != w.ResumeDir || g.State != w.State || g.IdemKey != w.IdemKey {
			t.Errorf("record %d = %+v, want %+v", i, g, w)
		}
	}
	if got[0].Spec == nil || got[0].Spec.Design.Synth == nil || got[0].Spec.Design.Synth.Seed != 1 {
		t.Errorf("accepted record lost its spec: %+v", got[0].Spec)
	}
	if !got[0].Submitted.Equal(want[0].Submitted) {
		t.Errorf("Submitted = %v, want %v", got[0].Submitted, want[0].Submitted)
	}
}

// TestJournalTornTail: a crash mid-append leaves a partial frame; replay
// keeps the intact prefix, reopening truncates the garbage, and appending
// continues from the last good frame.
func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	j, _, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := j.Append(testRecord("fj-00000"+string(rune('0'+i)), i)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	// Simulate the torn tail: half a frame of garbage after the good records.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x20, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, recs, err := openJournal(path)
	if err != nil {
		t.Fatalf("torn tail must not be an error: %v", err)
	}
	if len(recs) != 3 {
		t.Fatalf("replayed %d records past the torn tail, want 3", len(recs))
	}
	// Appending after truncation must produce a clean, fully-replayable file.
	if err := j2.Append(testRecord("fj-000004", 4)); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	_, recs2, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs2) != 4 || recs2[3].Job != "fj-000004" {
		t.Fatalf("post-truncate append lost: %d records, last %+v", len(recs2), recs2[len(recs2)-1])
	}
}

// TestJournalCorruptFrameStopsReplay: a bit flip inside a frame body fails
// its CRC; replay keeps everything before it and drops it and the rest.
func TestJournalCorruptFrameStopsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	j, _, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(testRecord("fj-000001", 1)); err != nil {
		t.Fatal(err)
	}
	end1, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(testRecord("fj-000002", 2)); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Flip one byte inside the second frame's payload.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[end1.Size()+10] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, recs, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j2.Close()
	if len(recs) != 1 || recs[0].Job != "fj-000001" {
		t.Fatalf("corrupt frame replay = %+v, want only the first record", recs)
	}
}

// TestJournalRejectsForeignFile: a file that is not a journal at all is an
// error, not silently truncated to nothing.
func TestJournalRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	if err := os.WriteFile(path, []byte("definitely not a journal file"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := openJournal(path)
	if !errors.Is(err, ErrJournalMagic) {
		t.Fatalf("foreign file error = %v, want ErrJournalMagic", err)
	}
}

// TestJournalCompact: compaction atomically replaces history with the
// snapshot and resets the append counter.
func TestJournalCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	j, _, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := j.Append(testRecord("fj-000001", i)); err != nil {
			t.Fatal(err)
		}
	}
	snap := []journalRecord{
		{Kind: recMeta, Seq: 42},
		testRecord("fj-000042", 42),
	}
	if err := j.Compact(snap); err != nil {
		t.Fatal(err)
	}
	if got := j.AppendedSinceCompact(); got != 0 {
		t.Fatalf("AppendedSinceCompact after compact = %d, want 0", got)
	}
	// The reopened handle must still append to the NEW file.
	if err := j.Append(journalRecord{Kind: recTerminal, Job: "fj-000042", State: "done"}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	_, recs, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[0].Kind != recMeta || recs[0].Seq != 42 || recs[2].State != "done" {
		t.Fatalf("compacted journal replay = %+v", recs)
	}
}

// TestJournalCompactFailingDisk: a compaction whose durable write fails must
// leave a journal that replays and takes appends. A failure before the
// rename keeps the old history; when only the directory fsync fails the
// compacted snapshot is already installed, and the next append must land in
// it rather than in the unlinked pre-compaction file.
func TestJournalCompactFailingDisk(t *testing.T) {
	cases := []struct {
		step string
		want int // records replayed after the failed compaction and one append
	}{
		{"rename", 6},  // five original records + the append
		{"dirsync", 3}, // two-record snapshot + the append
	}
	for _, tc := range cases {
		t.Run(tc.step, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "journal")
			j, _, err := openJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				if err := j.Append(testRecord("fj-000001", i)); err != nil {
					t.Fatal(err)
				}
			}
			plan := faultinject.NewPlan(faultinject.Fault{
				Site: faultinject.SiteDurableWrite, Mode: faultinject.ModeError,
			})
			durable.Hook = func(p, step string) error {
				if p != path || step != tc.step {
					return nil
				}
				if f, ok := plan.Visit(faultinject.SiteDurableWrite); ok {
					return f.Err()
				}
				return nil
			}
			t.Cleanup(func() { durable.Hook = nil })

			snap := []journalRecord{{Kind: recMeta, Seq: 42}, testRecord("fj-000042", 42)}
			if err := j.Compact(snap); !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("Compact = %v, want the injected failure", err)
			}
			if err := j.Append(journalRecord{Kind: recTerminal, Job: "fj-000001", State: "done"}); err != nil {
				t.Fatalf("append after failed compaction: %v", err)
			}
			j.Close()

			_, recs, err := openJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != tc.want || recs[len(recs)-1].State != "done" {
				t.Fatalf("replayed %d records (last %+v), want %d ending in the append", len(recs), recs[len(recs)-1], tc.want)
			}
			if des, _ := os.ReadDir(dir); len(des) != 1 {
				t.Fatalf("directory holds %d entries, want only the journal", len(des))
			}
		})
	}
}

// TestJournalBrokenAppendsFail: a journal whose handle was lost (the reopen
// after a compaction rename failed) must fail appends loudly instead of
// fsyncing into the unlinked pre-compaction inode, and stay safe to Close.
func TestJournalBrokenAppendsFail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	j, _, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the failed-reopen outcome: the handle is gone for good.
	j.mu.Lock()
	j.f.Close()
	j.f = nil
	j.mu.Unlock()
	if err := j.Append(testRecord("fj-000001", 1)); !errors.Is(err, errJournalBroken) {
		t.Fatalf("append on broken journal = %v, want errJournalBroken", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("closing a broken journal = %v, want nil", err)
	}
}

// TestFleetServiceSpecStateRoundTrip guards the service.State type alias
// assumptions the journal replay makes ("pending" is not a service state).
func TestJournalReplayAssignsDefaultQueuedState(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	j, _, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(testRecord("fj-000001", 1)); err != nil {
		t.Fatal(err)
	}
	// An assigned record with no state (older writer) must replay as queued.
	if err := j.Append(journalRecord{Kind: recAssigned, Job: "fj-000001", Worker: "wA", WorkerURL: "http://a", RemoteID: "r1"}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	c, err := NewCoordinator(Config{HeartbeatTTL: time.Second, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	v, err := c.Get("fj-000001")
	if err != nil {
		t.Fatal(err)
	}
	if v.State != string(service.StateQueued) || !v.Recovered {
		t.Fatalf("replayed assigned job = %+v, want recovered queued", v)
	}
}
