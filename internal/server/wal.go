package server

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"time"

	"sprout/internal/faultinject"
)

// The WAL is an append-only log of job lifecycle records. Each record is
// framed as
//
//	4 bytes little-endian payload length
//	4 bytes little-endian IEEE CRC-32 of the payload
//	payload (JSON walRecord)
//
// so a reader can detect a torn or corrupted tail — the normal aftermath
// of a crash mid-write — and truncate it instead of failing recovery.
// walMaxRecord bounds a single record; a length field beyond it is
// treated as corruption, not an allocation.
const (
	walHeaderSize = 8
	walMaxRecord  = 16 << 20
)

// Record types, in lifecycle order. "drop" unwinds an accept whose job
// was rejected by admission after the accept record was already durable.
// "attempt" supersedes "run" (kept for replaying old logs): it carries
// the start count so recovery can tell a job that keeps crashing the
// process from one that was merely unlucky. "ckpt" carries an opaque
// exploration checkpoint so a killed sweep resumes instead of restarting.
// "quarantine" and "requeue" record the poison-job state transitions.
const (
	walAccept     = "accept"
	walRun        = "run"
	walAttempt    = "attempt"
	walFinish     = "finish"
	walDrop       = "drop"
	walCheckpoint = "ckpt"
	walQuarantine = "quarantine"
	walRequeue    = "requeue"
)

// walRecord is one WAL entry / one job snapshot row. Accept records
// carry everything needed to re-create and re-run the job after a crash:
// the canonical document plus the submission knobs that are not derivable
// from it. Finish records carry the terminal outcome, including the run
// report, so results survive restart.
type walRecord struct {
	T  string    `json:"t"`
	ID string    `json:"id"`
	TS time.Time `json:"ts"`

	// Accept fields.
	Key            string          `json:"key,omitempty"`
	Hash           string          `json:"hash,omitempty"`
	Board          string          `json:"board,omitempty"`
	Doc            json.RawMessage `json:"doc,omitempty"`
	TimeoutNS      int64           `json:"timeout_ns,omitempty"`
	Explore        bool            `json:"explore,omitempty"`
	Manual         bool            `json:"manual,omitempty"`
	SkipExtract    bool            `json:"skip_extract,omitempty"`
	ExploreWorkers int             `json:"explore_workers,omitempty"`
	// Trace is the submitter's X-Sprout-Trace header, persisted so a
	// recovered job re-attaches to the originating distributed trace.
	Trace string `json:"trace,omitempty"`

	// Finish fields. Err/Kind double as the preserved diagnostics on a
	// quarantine record.
	Err         string              `json:"err,omitempty"`
	Kind        ErrKind             `json:"kind,omitempty"`
	Report      json.RawMessage     `json:"report,omitempty"`
	Exploration *ExplorationSummary `json:"exploration,omitempty"`

	// Attempt is the 1-based start count on attempt and quarantine
	// records; Ckpt is the opaque exploration-checkpoint frame on ckpt
	// records (base64 via encoding/json).
	Attempt int    `json:"attempt,omitempty"`
	Ckpt    []byte `json:"ckpt,omitempty"`
}

// encodeWALRecord frames one record payload.
func encodeWALRecord(rec *walRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("server: encode wal record: %w", err)
	}
	buf := make([]byte, walHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[walHeaderSize:], payload)
	return buf, nil
}

// decodeWAL parses every intact record from data and returns them along
// with the byte offset of the valid prefix. Anything past the offset —
// a torn header, a short payload, a CRC mismatch, an implausible length,
// or unparseable JSON — is corruption to be truncated by the caller.
// decodeWAL itself never fails: a damaged log yields the records before
// the damage.
func decodeWAL(data []byte) (recs []*walRecord, valid int) {
	off := 0
	for {
		if len(data)-off < walHeaderSize {
			return recs, off
		}
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n <= 0 || n > walMaxRecord || len(data)-off-walHeaderSize < n {
			return recs, off
		}
		payload := data[off+walHeaderSize : off+walHeaderSize+n]
		if crc32.ChecksumIEEE(payload) != sum {
			return recs, off
		}
		rec := &walRecord{}
		if err := json.Unmarshal(payload, rec); err != nil {
			return recs, off
		}
		recs = append(recs, rec)
		off += walHeaderSize + n
	}
}

// walFile is the open log: append (optionally fsynced), truncate-and-
// restart after compaction, and a kill switch that simulates the process
// dying (all subsequent writes vanish, exactly like a SIGKILL).
type walFile struct {
	f      *os.File
	path   string
	killed bool
}

func openWALFile(path string) (*walFile, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("server: open wal: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("server: seek wal: %w", err)
	}
	return &walFile{f: f, path: path}, nil
}

// append writes one framed record, honoring the disk fault sites. sync
// requests an fsync after the write (the accept path's durability
// barrier). When the corrupt-tail site fires, append deliberately writes
// a torn record and reports success — the caller believes the record is
// durable, exactly like a crash between the write and the flush.
func (w *walFile) append(rec *walRecord, sync bool) error {
	if w.killed {
		return nil // the "process" died; writes go nowhere
	}
	buf, err := encodeWALRecord(rec)
	if err != nil {
		return err
	}
	if ferr := faultinject.Check(faultinject.SiteWALCorrupt); ferr != nil {
		// Injected torn write: half the record reaches the disk, the
		// caller is told all of it did. Recovery must truncate this.
		_, _ = w.f.Write(buf[:walHeaderSize+(len(buf)-walHeaderSize)/2])
		w.killed = true // nothing coherent can follow a torn tail
		return nil
	}
	if ferr := faultinject.Check(faultinject.SiteWALWrite); ferr != nil {
		return fmt.Errorf("server: wal write: %w", ferr)
	}
	if _, err := w.f.Write(buf); err != nil {
		return fmt.Errorf("server: wal write: %w", err)
	}
	if sync {
		if ferr := faultinject.Check(faultinject.SiteWALSync); ferr != nil {
			return fmt.Errorf("server: wal fsync: %w", ferr)
		}
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("server: wal fsync: %w", err)
		}
	}
	return nil
}

// reset truncates the log to empty after a successful snapshot. The
// truncate is fsynced: without it a power loss could resurrect the
// pre-compaction log bytes next to the new snapshot and replay stale
// lifecycle records over fresher state.
func (w *walFile) reset() error {
	if w.killed {
		return nil
	}
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("server: truncate wal: %w", err)
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("server: seek wal: %w", err)
	}
	if ferr := faultinject.Check(faultinject.SiteWALSync); ferr != nil {
		return fmt.Errorf("server: sync truncated wal: %w", ferr)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("server: sync truncated wal: %w", err)
	}
	return nil
}

// kill flips the simulated-SIGKILL switch: every later append and reset
// silently vanishes, as if the process had died now. Test-only.
func (w *walFile) kill() { w.killed = true }

func (w *walFile) close() error {
	if w.killed {
		// A killed process does not get to flush; just release the fd.
		return w.f.Close()
	}
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return fmt.Errorf("server: close wal: %w", err)
	}
	return w.f.Close()
}

// loadWAL reads the log at path, truncating a torn or corrupt tail in
// place so the next append continues from a coherent offset. It returns
// the intact records and how many bytes of damage were cut (0 = clean).
func loadWAL(path string) (recs []*walRecord, truncated int64, err error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("server: read wal: %w", err)
	}
	recs, valid := decodeWAL(data)
	if valid < len(data) {
		if err := os.Truncate(path, int64(valid)); err != nil {
			return nil, 0, fmt.Errorf("server: truncate torn wal tail: %w", err)
		}
		truncated = int64(len(data) - valid)
	}
	return recs, truncated, nil
}
