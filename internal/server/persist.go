package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"time"

	"sprout/internal/boardio"
	"sprout/internal/faultinject"
	"sprout/internal/obs"
)

// Filenames inside a store directory.
const (
	walFileName  = "wal.log"
	snapFileName = "snapshot.json"
)

// StoreOptions tunes a Store. The zero value is usable.
type StoreOptions struct {
	// Name prefixes job ids (replica identity; must be unique per replica
	// in a sharded deployment). "" keeps the bare "job-N" form.
	Name string
	// NoSync disables the fsync after each accept record. Accepts get
	// faster, but jobs accepted in the unsynced window can vanish in a
	// crash — the durability contract drops from fsync-on-accept to
	// best-effort. The store-throughput benchmark measures the gap.
	NoSync bool
	// SnapshotEvery is the number of WAL appends between snapshot +
	// log-compaction passes (default 4096).
	SnapshotEvery int
	// MaxAttempts is the per-job start budget: recovery quarantines a
	// non-terminal job whose durable attempt count has reached it, instead
	// of re-enqueueing a board that keeps taking the process down. 0
	// selects the default of 3; negative disables quarantine entirely.
	MaxAttempts int
	// Tracer receives the wal.* counters (optional).
	Tracer *obs.Tracer
	// Log receives recovery and compaction events (optional).
	Log *slog.Logger
}

// DefaultMaxAttempts is the start budget applied when StoreOptions (or
// the -max-attempts flag) leaves MaxAttempts at zero.
const DefaultMaxAttempts = 3

func (o StoreOptions) normalize() StoreOptions {
	if o.SnapshotEvery <= 0 {
		o.SnapshotEvery = 4096
	}
	if o.MaxAttempts == 0 {
		o.MaxAttempts = DefaultMaxAttempts
	}
	if o.Log == nil {
		o.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return o
}

// jobSnap is one job row of a snapshot file: the accept record plus the
// lifecycle outcome reached so far.
type jobSnap struct {
	Accept      *walRecord          `json:"accept"`
	State       JobState            `json:"state"`
	Started     time.Time           `json:"started,omitempty"`
	Finished    time.Time           `json:"finished,omitempty"`
	Err         string              `json:"err,omitempty"`
	Kind        ErrKind             `json:"kind,omitempty"`
	Report      json.RawMessage     `json:"report,omitempty"`
	Exploration *ExplorationSummary `json:"exploration,omitempty"`
	Attempts    int                 `json:"attempts,omitempty"`
	Checkpoint  []byte              `json:"checkpoint,omitempty"`
}

// storeSnap is the snapshot file: the id counter plus every job row.
type storeSnap struct {
	Next int        `json:"next"`
	Jobs []*jobSnap `json:"jobs"`
}

// OpenStore opens (creating if needed) a store rooted at dir: an
// in-memory table mirrored to an append-only WAL with fsync-on-accept,
// periodically folded into a snapshot file with log compaction. Opening
// runs recovery: snapshot load, WAL replay, torn-tail truncation, and
// re-queueing of accepted-but-unfinished jobs through Recovered — the
// zero-accepted-job-loss guarantee extended across SIGKILL. The
// recovered state is immediately re-snapshotted so the WAL starts
// compact.
//
// Execution is at-least-once (a job that computed but whose finish
// record never hit the disk re-runs after a crash); the terminal state
// each job reaches is recorded exactly once.
func OpenStore(dir string, opts StoreOptions) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: store dir: %w", err)
	}
	s := newStore(opts)
	s.dir = dir
	if err := s.recover(); err != nil {
		return nil, err
	}
	wal, err := openWALFile(filepath.Join(dir, walFileName))
	if err != nil {
		return nil, err
	}
	s.wal = wal
	// Fold what recovery replayed into a fresh snapshot so the next
	// restart does not re-pay this one's WAL scan.
	s.logMu.Lock()
	err = s.compactLocked()
	s.logMu.Unlock()
	if err != nil {
		wal.close()
		return nil, err
	}
	return s, nil
}

// recover rebuilds the table from snapshot + WAL. Replay runs every
// record and snapshot row through the transitions live operation uses,
// so a replayed job ends in the state the live one reached. Replay is
// idempotent: a crash between snapshot rename and WAL reset leaves
// records in the log that the snapshot already folded in, and they must
// apply as no-ops.
func (s *Store) recover() error {
	var start time.Time
	if s.opts.Tracer.Enabled() {
		start = time.Now()
		defer func() {
			s.opts.Tracer.Histogram(obs.MWALRecoverMS).Observe(float64(time.Since(start)) / 1e6)
		}()
	}
	snapPath := filepath.Join(s.dir, snapFileName)
	data, err := os.ReadFile(snapPath)
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("server: read snapshot: %w", err)
	}
	recs, truncated, err := loadWAL(filepath.Join(s.dir, walFileName))
	if err != nil {
		return err
	}
	if truncated > 0 {
		s.opts.Tracer.Counter(obs.MWALTruncatedTail).Add(1)
		s.opts.Log.Warn("wal tail torn or corrupt, truncated", "bytes", truncated)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if len(data) > 0 {
		var snap storeSnap
		if jerr := json.Unmarshal(data, &snap); jerr != nil {
			// A corrupt snapshot is unrecoverable state damage for the jobs
			// it held, but must not take the service down: log and start
			// from the WAL alone.
			s.opts.Log.Error("snapshot corrupt, discarding", "path", snapPath, "err", jerr)
		} else {
			s.next = snap.Next
			for _, row := range snap.Jobs {
				s.applySnapRowLocked(row)
			}
		}
	}
	for _, rec := range recs {
		s.applyWALRecordLocked(rec)
	}

	// Everything accepted but not terminal re-queues, in acceptance order —
	// unless its durable start count already exhausted the attempt budget,
	// in which case the board has demonstrably taken the process down
	// MaxAttempts times and re-running it would crash-loop the replica.
	// Those jobs go to quarantine with their attempt history preserved;
	// only an operator requeue revives them.
	var recovered []*Job
	var quarantined int
	for _, j := range s.jobs {
		if j.state.Terminal() {
			continue
		}
		if s.opts.MaxAttempts > 0 && j.attempts >= s.opts.MaxAttempts {
			s.quarantineLocked(j, fmt.Sprintf(
				"server: quarantined after %d attempts without reaching a terminal state", j.attempts), time.Now())
			quarantined++
			s.opts.Log.Warn("job quarantined as poisonous",
				"job", j.id, "board", j.board, "attempts", j.attempts)
			continue
		}
		j.state = StateQueued
		j.started = time.Time{}
		recovered = append(recovered, j)
	}
	s.sortBySeq(recovered)
	s.recovered = recovered
	s.opts.Tracer.Counter(obs.MWALRecoveredJobs).Add(int64(len(recovered)))
	s.opts.Tracer.Counter(obs.MJobsQuarantined).Add(int64(quarantined))
	if len(recs) > 0 || len(recovered) > 0 || quarantined > 0 {
		s.opts.Log.Info("store recovered",
			"jobs", len(s.jobs), "wal_records", len(recs),
			"requeued", len(recovered), "quarantined", quarantined)
	}
	return nil
}

// applySnapRowLocked materializes one snapshot job row (skipping ids
// already present, which cannot happen in a well-formed snapshot but
// keeps the loader total). Callers hold s.mu.
func (s *Store) applySnapRowLocked(row *jobSnap) {
	if row == nil || row.Accept == nil || row.Accept.ID == "" {
		return
	}
	if _, exists := s.jobs[row.Accept.ID]; exists {
		return
	}
	terminal := row.State == StateDone || row.State == StateFailed
	j := s.restoreLocked(row.Accept, !terminal)
	j.started = row.Started
	j.exploration = row.Exploration
	j.attempts = row.Attempts
	switch {
	case terminal:
		var err error
		if row.State == StateFailed {
			err = errors.New(row.Err)
		}
		s.finishLocked(j, decodeReport(row.Report), err, row.Kind, row.Finished)
	case row.State == StateQuarantined:
		// Quarantined rows keep their decoded document (a requeue re-runs
		// them) and their checkpoint (the requeued sweep resumes).
		s.setCheckpointLocked(j, row.Checkpoint)
		s.quarantineLocked(j, row.Err, row.Finished)
	default:
		s.setCheckpointLocked(j, row.Checkpoint)
	}
}

// applyWALRecordLocked replays one log record onto the table,
// idempotently. Callers hold s.mu.
func (s *Store) applyWALRecordLocked(rec *walRecord) {
	j := s.jobs[rec.ID]
	if rec.T == walAccept {
		if j == nil {
			s.restoreLocked(rec, true)
		}
		return
	}
	if j == nil {
		return
	}
	switch rec.T {
	case walRun:
		// Legacy start record (pre-attempt-budget logs): each one is one
		// worker start.
		if !j.state.Terminal() {
			j.state = StateRunning
			j.started = rec.TS
			j.attempts++
		}
	case walAttempt:
		// Attempt records carry the absolute start count, so replaying a
		// record the snapshot already folded in is a no-op (max, not ++).
		if !j.state.Terminal() {
			j.state = StateRunning
			j.started = rec.TS
			j.attempts = max(j.attempts, rec.Attempt)
		}
	case walCheckpoint:
		s.setCheckpointLocked(j, rec.Ckpt)
	case walQuarantine:
		if s.quarantineLocked(j, rec.Err, rec.TS) {
			j.attempts = max(j.attempts, rec.Attempt)
		}
	case walRequeue:
		// Refused only when the job is not quarantined: the snapshot
		// already folded this record in.
		_ = s.requeueLocked(j)
	case walFinish:
		var err error
		if rec.Err != "" || rec.Kind != "" {
			err = errors.New(rec.Err)
		}
		if s.finishLocked(j, decodeReport(rec.Report), err, rec.Kind, rec.TS) {
			j.exploration = rec.Exploration
		}
	case walDrop:
		s.dropLocked(j)
	}
}

// restoreLocked registers the job an accept record describes. Only a job
// that can still run gets its document decoded (a terminal snapshot row
// carries none). A document that no longer decodes (disk damage inside
// an intact CRC frame, or a schema change across versions) fails the job
// with KindInternal rather than aborting recovery. Callers hold s.mu.
func (s *Store) restoreLocked(rec *walRecord, runnable bool) *Job {
	spec := JobSpec{
		IdemKey: rec.Key,
		Hash:    rec.Hash,
		Raw:     rec.Doc,
		Timeout: time.Duration(rec.TimeoutNS),
		Explore: rec.Explore,
	}
	if tc, ok := obs.ParseTraceContext(rec.Trace); ok {
		spec.Trace = tc
	}
	var derr error
	if runnable {
		if len(rec.Doc) == 0 {
			derr = errors.New("server: accept record carries no document")
		} else if spec.Doc, derr = boardio.Decode(bytes.NewReader(rec.Doc)); derr != nil {
			s.opts.Log.Error("recovered job document no longer decodes", "job", rec.ID, "err", derr)
			derr = fmt.Errorf("server: recovered document undecodable: %w", derr)
		} else {
			spec.Opt = routeOptions(spec.Doc, SubmitOptions{
				WithManual:     rec.Manual,
				SkipExtract:    rec.SkipExtract,
				ExploreWorkers: rec.ExploreWorkers,
			})
		}
	}
	j := newJob(rec.ID, rec.Board, spec, rec.TS)
	s.insertLocked(j)
	if derr != nil {
		s.finishLocked(j, nil, derr, KindInternal, time.Now())
	}
	return j
}

// decodeReport parses a logged run report (nil when absent or damaged).
func decodeReport(data json.RawMessage) *obs.RunReport {
	if len(data) == 0 {
		return nil
	}
	rep := &obs.RunReport{}
	if err := json.Unmarshal(data, rep); err != nil {
		return nil
	}
	return rep
}

// acceptRecord builds the WAL accept record for a job.
func acceptRecord(j *Job) *walRecord {
	return &walRecord{
		T: walAccept, ID: j.id, TS: j.submitted,
		Key: j.idemKey, Hash: j.hash, Board: j.board,
		Doc:       j.raw,
		TimeoutNS: int64(j.timeout), Explore: j.explore,
		Manual: j.opt.WithManual, SkipExtract: j.opt.SkipExtract,
		ExploreWorkers: j.opt.ExploreWorkers, Trace: j.trace.Header(),
	}
}

// appendLocked writes one record and runs the compaction countdown; a
// no-op for an in-memory store. Callers hold s.logMu.
func (s *Store) appendLocked(rec *walRecord, sync bool) error {
	if s.wal == nil {
		return nil
	}
	if rec.T == walCheckpoint {
		if ferr := faultinject.Check(faultinject.SiteCkptWrite); ferr != nil {
			return fmt.Errorf("server: checkpoint write: %w", ferr)
		}
	}
	var start time.Time
	if s.opts.Tracer.Enabled() {
		start = time.Now()
	}
	if err := s.wal.append(rec, sync); err != nil {
		return err
	}
	if s.opts.Tracer.Enabled() {
		s.opts.Tracer.Histogram(obs.MWALAppendMS).Observe(float64(time.Since(start)) / 1e6)
	}
	s.opts.Tracer.Counter(obs.MWALAppends).Add(1)
	s.appends++
	if s.appends >= s.opts.SnapshotEvery {
		if err := s.compactLocked(); err != nil {
			// Compaction failure leaves a longer WAL, not lost state.
			s.opts.Log.Error("wal compaction failed", "err", err)
		}
	}
	return nil
}

// compactLocked folds the current table into snapshot.json (write temp,
// fsync, rename) and truncates the WAL. Callers hold s.logMu, on a
// store with a directory.
func (s *Store) compactLocked() error {
	if s.wal.killed {
		return nil
	}
	var start time.Time
	if s.opts.Tracer.Enabled() {
		start = time.Now()
	}
	snap := s.snapshotRows()
	data, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("server: encode snapshot: %w", err)
	}
	tmp := filepath.Join(s.dir, snapFileName+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("server: snapshot temp: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("server: snapshot write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("server: snapshot fsync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("server: snapshot close: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, snapFileName)); err != nil {
		return fmt.Errorf("server: snapshot rename: %w", err)
	}
	// The rename is only durable once the directory entry itself is on
	// disk: without this fsync a power loss can leave the directory
	// pointing at the old snapshot while the WAL below gets truncated —
	// silently losing every job the new snapshot folded in.
	if err := syncDir(s.dir); err != nil {
		return fmt.Errorf("server: snapshot dir fsync: %w", err)
	}
	if err := s.wal.reset(); err != nil {
		return err
	}
	s.appends = 0
	if s.opts.Tracer.Enabled() {
		s.opts.Tracer.Histogram(obs.MWALCompactMS).Observe(float64(time.Since(start)) / 1e6)
	}
	s.opts.Tracer.Counter(obs.MWALCompactions).Add(1)
	s.opts.Log.Info("wal compacted", "jobs", len(snap.Jobs))
	return nil
}

// snapshotRows captures every job as a snapshot row.
func (s *Store) snapshotRows() *storeSnap {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := &storeSnap{Next: s.next}
	for _, j := range s.jobs {
		row := &jobSnap{
			Accept:      acceptRecord(j),
			State:       j.state,
			Started:     j.started,
			Finished:    j.finished,
			Exploration: j.exploration,
			Attempts:    j.attempts,
			Checkpoint:  j.checkpoint,
		}
		if j.err != nil {
			row.Err = j.err.Error()
			row.Kind = j.kind
		}
		if j.report != nil {
			if b, err := json.Marshal(j.report); err == nil {
				row.Report = b
			}
		}
		snap.Jobs = append(snap.Jobs, row)
	}
	// Deterministic file contents make snapshots diffable and testable.
	sort.Slice(snap.Jobs, func(a, b int) bool { return snap.Jobs[a].Accept.ID < snap.Jobs[b].Accept.ID })
	return snap
}

// syncDir fsyncs a directory so a just-renamed file inside it survives
// power loss.
func syncDir(dir string) error {
	if ferr := faultinject.Check(faultinject.SiteDirSync); ferr != nil {
		return fmt.Errorf("server: sync dir: %w", ferr)
	}
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("server: open dir for sync: %w", err)
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return fmt.Errorf("server: sync dir: %w", err)
	}
	return d.Close()
}

// Close snapshots once more and closes the WAL; a no-op for an
// in-memory store.
func (s *Store) Close() error {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	if s.wal == nil {
		return nil
	}
	if err := s.compactLocked(); err != nil {
		s.opts.Log.Warn("final compaction failed", "err", err)
	}
	return s.wal.close()
}

// Kill simulates the process dying right now: every subsequent WAL write
// silently vanishes while the in-memory engine keeps going, exactly the
// observable disk state a SIGKILL leaves behind. The chaos tests crash a
// live store with Kill, reopen the directory, and assert recovery. Only
// a store opened with OpenStore has a WAL to kill.
func (s *Store) Kill() {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	s.wal.kill()
}
