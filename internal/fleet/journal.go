package fleet

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"

	"repro/internal/durable"
	"repro/internal/service"
)

// The coordinator's job journal is an append-only record of every job-state
// transition that matters for crash recovery, framed with the same codec
// discipline as the checkpoint store (internal/checkpoint): a magic+version
// header, then length-prefixed records each guarded by a CRC-32C of the
// payload. Replay stops at the first bad frame — a torn tail from a crash
// mid-append loses at most the record being written, never the prefix — and
// the file is truncated back to the last good frame before appending
// resumes.
const (
	journalMagic   = "MEGPJRNL"
	journalVersion = 1
	// journalMaxRecord bounds one frame so a corrupt length prefix cannot
	// drive a huge allocation during replay.
	journalMaxRecord = 4 << 20
)

// Journal file-format errors. A torn tail is NOT an error (it is the
// expected crash artifact); these fire only when the file is not a journal
// at all.
var (
	ErrJournalMagic   = errors.New("fleet: journal has wrong magic")
	ErrJournalVersion = errors.New("fleet: unsupported journal version")
)

// errJournalBroken marks a journal whose handle was lost (the reopen after a
// compaction rename failed): appends must fail loudly rather than fsync into
// the unlinked pre-compaction inode.
var errJournalBroken = errors.New("fleet: journal broken (reopen after compaction failed)")

var journalCRC = crc32.MakeTable(crc32.Castagnoli)

// Journal record kinds, in the order a job's life emits them.
const (
	recAccepted = "accepted" // job admitted: spec, tenant, idempotency key
	recAssigned = "assigned" // job placed on a worker (also after a steal)
	recRerouted = "rerouted" // assignment cleared; optional resume pointer
	recTerminal = "terminal" // job reached done/failed/cancelled
	recMeta     = "meta"     // compaction header: sequence floor
)

// journalRecord is one framed JSON payload. A single struct covers every
// kind; unused fields are omitted on the wire.
type journalRecord struct {
	Kind      string           `json:"kind"`
	Job       string           `json:"job,omitempty"`
	Tenant    string           `json:"tenant,omitempty"`
	Class     string           `json:"class,omitempty"`
	IdemKey   string           `json:"idem,omitempty"`
	Key       uint64           `json:"key,omitempty"`
	Spec      *service.JobSpec `json:"spec,omitempty"`
	Submitted time.Time        `json:"submitted"`
	Worker    string           `json:"worker,omitempty"`
	WorkerURL string           `json:"worker_url,omitempty"`
	RemoteID  string           `json:"remote_id,omitempty"`
	DataDir   string           `json:"data_dir,omitempty"`
	ResumeDir string           `json:"resume_dir,omitempty"`
	State     string           `json:"state,omitempty"`
	Seq       int64            `json:"seq,omitempty"`
}

// Journal is the append-only, CRC-checked transition log backing coordinator
// crash recovery. Safe for concurrent use; every append is fsynced so an
// acknowledged submit survives kill -9.
type Journal struct {
	mu       sync.Mutex
	path     string
	f        *os.File
	appended int // records appended since open/compact (compaction trigger)
}

// openJournal opens (creating if needed) the journal at path, replays every
// intact record, truncates away any torn tail, and leaves the file ready for
// appends. The returned records are in append order.
func openJournal(path string) (*Journal, []journalRecord, error) {
	recs, validLen, err := readJournal(path)
	if err != nil {
		return nil, nil, err
	}
	if validLen == 0 {
		// Fresh (or headerless) file: install a header-only journal.
		hdr := appendHeader(nil)
		if err := durable.WriteFile(path, hdr); err != nil {
			return nil, nil, err
		}
		validLen = int64(len(hdr))
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0)
	if err != nil {
		return nil, nil, err
	}
	// Drop the torn tail (no-op when the file ended cleanly); appends land
	// after the last good frame.
	if err := f.Truncate(validLen); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &Journal{path: path, f: f}, recs, nil
}

// appendHeader appends the journal's magic+version header to buf.
func appendHeader(buf []byte) []byte {
	buf = append(buf, journalMagic...)
	return binary.LittleEndian.AppendUint32(buf, journalVersion)
}

// appendFrame appends rec to buf as one length-prefixed, CRC-guarded frame.
func appendFrame(buf []byte, rec journalRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return buf, err
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, journalCRC))
	return append(buf, payload...), nil
}

// readJournal scans the file, returning every intact record and the byte
// offset of the end of the last good frame. A missing file yields (nil, 0).
func readJournal(path string) ([]journalRecord, int64, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	hdr := make([]byte, len(journalMagic)+4)
	if _, err := io.ReadFull(f, hdr); err != nil {
		return nil, 0, nil // shorter than a header: treat as empty
	}
	if string(hdr[:len(journalMagic)]) != journalMagic {
		return nil, 0, fmt.Errorf("%w: %q", ErrJournalMagic, hdr[:len(journalMagic)])
	}
	if v := binary.LittleEndian.Uint32(hdr[len(journalMagic):]); v != journalVersion {
		return nil, 0, fmt.Errorf("%w: %d", ErrJournalVersion, v)
	}
	var recs []journalRecord
	valid := int64(len(hdr))
	frame := make([]byte, 8)
	for {
		if _, err := io.ReadFull(f, frame); err != nil {
			return recs, valid, nil
		}
		n := binary.LittleEndian.Uint32(frame[:4])
		sum := binary.LittleEndian.Uint32(frame[4:])
		if n == 0 || n > journalMaxRecord {
			return recs, valid, nil
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(f, payload); err != nil {
			return recs, valid, nil
		}
		if crc32.Checksum(payload, journalCRC) != sum {
			return recs, valid, nil
		}
		var rec journalRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return recs, valid, nil
		}
		recs = append(recs, rec)
		valid += int64(8 + n)
	}
}

// Append frames, writes, and fsyncs one record.
func (j *Journal) Append(rec journalRecord) error {
	buf, err := appendFrame(nil, rec)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errJournalBroken
	}
	if _, err := j.f.Write(buf); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.appended++
	return nil
}

// AppendedSinceCompact reports how many records landed since the journal was
// opened or last compacted — the coordinator's compaction trigger.
func (j *Journal) AppendedSinceCompact() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appended
}

// Compact replaces the journal with a snapshot of the given records, then
// reopens for appends. The replacement is delegated to durable.WriteFile, so
// a crash or power cut leaves either the old journal or the compacted one.
// The snapshot is the coordinator's live job table re-serialized, so replay
// cost stays proportional to retained jobs instead of total history.
func (j *Journal) Compact(recs []journalRecord) error {
	buf := appendHeader(make([]byte, 0, 4096))
	for _, rec := range recs {
		var err error
		if buf, err = appendFrame(buf, rec); err != nil {
			return err
		}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	werr := durable.WriteFile(j.path, buf)
	// Reopen even when the write failed: the path holds the old journal, or
	// the compacted one when only the directory fsync failed, and an append
	// through the old handle could land in the unlinked pre-compaction inode
	// and fsync into a deleted file.
	j.f.Close()
	var err error
	if j.f, err = os.OpenFile(j.path, os.O_RDWR|os.O_APPEND, 0); err != nil {
		// j.f is nil now: the journal is broken, so Append fails loudly and
		// the coordinator's refuse-on-append-failure path engages instead
		// of acking non-durable writes.
		return err
	}
	if werr != nil {
		return werr
	}
	j.appended = 0
	return nil
}

// Close releases the file handle. Appends after Close fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	return j.f.Close()
}
