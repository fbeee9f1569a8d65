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
	"sync"
	"time"

	"sprout"
	"sprout/internal/boardio"
	"sprout/internal/faultinject"
	"sprout/internal/obs"
)

// Filenames inside a store directory.
const (
	walFileName  = "wal.log"
	snapFileName = "snapshot.json"
)

// StoreOptions tunes the persistent job store. The zero value is usable.
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

// PersistentStore is the crash-safe JobStore: an in-memory table mirrored
// to an append-only WAL with fsync-on-accept, periodically folded into a
// snapshot file with log compaction. Opening a store directory replays
// snapshot + WAL, truncates a torn tail instead of failing, and exposes
// accepted-but-unfinished jobs through Recovered so the engine re-runs
// them — the zero-accepted-job-loss guarantee extended across SIGKILL.
//
// Execution is at-least-once (a job that computed but whose finish record
// never hit the disk re-runs after a crash); the terminal state each job
// reaches is recorded exactly once.
type PersistentStore struct {
	mem  *memStore
	opts StoreOptions
	dir  string

	// mu serializes state transition + WAL append so the log order always
	// matches the table order. Reads (Get/Status/Result/NonTerminal) go
	// straight to mem under its own lock.
	mu        sync.Mutex
	wal       *walFile
	appends   int
	recovered []*Job
}

var _ JobStore = (*PersistentStore)(nil)

// OpenStore opens (creating if needed) a persistent job store rooted at
// dir and runs recovery: snapshot load, WAL replay, torn-tail truncation,
// and re-queueing of accepted-but-unfinished jobs. The recovered state is
// immediately re-snapshotted so the WAL starts compact.
func OpenStore(dir string, opts StoreOptions) (*PersistentStore, error) {
	opts = opts.normalize()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: store dir: %w", err)
	}
	p := &PersistentStore{mem: newMemStore(opts.Name), opts: opts, dir: dir}
	if err := p.recover(); err != nil {
		return nil, err
	}
	wal, err := openWALFile(filepath.Join(dir, walFileName))
	if err != nil {
		return nil, err
	}
	p.wal = wal
	// Fold what recovery replayed into a fresh snapshot so the next
	// restart does not re-pay this one's WAL scan.
	p.mu.Lock()
	err = p.compactLocked()
	p.mu.Unlock()
	if err != nil {
		wal.close()
		return nil, err
	}
	return p, nil
}

// recover rebuilds the in-memory table from snapshot + WAL. Replay is
// idempotent: a crash between snapshot rename and WAL reset leaves
// records in the log that the snapshot already folded in, and they must
// apply as no-ops.
func (p *PersistentStore) recover() error {
	var start time.Time
	if p.opts.Tracer.Enabled() {
		start = time.Now()
		defer func() {
			p.opts.Tracer.Histogram(obs.MWALRecoverMS).Observe(float64(time.Since(start)) / 1e6)
		}()
	}
	snapPath := filepath.Join(p.dir, snapFileName)
	data, err := os.ReadFile(snapPath)
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("server: read snapshot: %w", err)
	}
	if len(data) > 0 {
		var snap storeSnap
		if jerr := json.Unmarshal(data, &snap); jerr != nil {
			// A corrupt snapshot is unrecoverable state damage for the jobs
			// it held, but must not take the service down: log and start
			// from the WAL alone.
			p.opts.Log.Error("snapshot corrupt, discarding", "path", snapPath, "err", jerr)
		} else {
			p.mem.next = snap.Next
			for _, row := range snap.Jobs {
				p.applySnapRow(row)
			}
		}
	}

	recs, truncated, err := loadWAL(filepath.Join(p.dir, walFileName))
	if err != nil {
		return err
	}
	if truncated > 0 {
		p.opts.Tracer.Counter(obs.MWALTruncatedTail).Add(1)
		p.opts.Log.Warn("wal tail torn or corrupt, truncated", "bytes", truncated)
	}
	for _, rec := range recs {
		p.applyWALRecord(rec)
	}

	// Everything accepted but not terminal re-queues, in acceptance order —
	// unless its durable start count already exhausted the attempt budget,
	// in which case the board has demonstrably taken the process down
	// MaxAttempts times and re-running it would crash-loop the replica.
	// Those jobs go to quarantine with their attempt history preserved;
	// only an operator requeue revives them.
	p.mem.mu.Lock()
	var recovered []*Job
	var quarantined int
	for _, j := range p.mem.jobs {
		if j.state.Terminal() {
			continue
		}
		if p.opts.MaxAttempts > 0 && j.attempts >= p.opts.MaxAttempts {
			p.mem.quarantineLocked(j, fmt.Sprintf(
				"server: quarantined after %d attempts without reaching a terminal state", j.attempts), time.Now())
			quarantined++
			p.opts.Log.Warn("job quarantined as poisonous",
				"job", j.id, "board", j.board, "attempts", j.attempts)
			continue
		}
		j.state = StateQueued
		j.started = time.Time{}
		recovered = append(recovered, j)
	}
	p.mem.mu.Unlock()
	sort.Slice(recovered, func(a, b int) bool {
		na, _ := p.mem.jobSeq(recovered[a].id)
		nb, _ := p.mem.jobSeq(recovered[b].id)
		return na < nb
	})
	p.recovered = recovered
	p.opts.Tracer.Counter(obs.MWALRecoveredJobs).Add(int64(len(recovered)))
	p.opts.Tracer.Counter(obs.MJobsQuarantined).Add(int64(quarantined))
	if len(recs) > 0 || len(recovered) > 0 || quarantined > 0 {
		p.opts.Log.Info("store recovered",
			"jobs", len(p.mem.jobs), "wal_records", len(recs),
			"requeued", len(recovered), "quarantined", quarantined)
	}
	return nil
}

// applySnapRow materializes one snapshot job row (skipping ids already
// present, which cannot happen in a well-formed snapshot but keeps the
// loader total).
func (p *PersistentStore) applySnapRow(row *jobSnap) {
	if row == nil || row.Accept == nil || row.Accept.ID == "" {
		return
	}
	p.mem.mu.Lock()
	defer p.mem.mu.Unlock()
	if _, exists := p.mem.jobs[row.Accept.ID]; exists {
		return
	}
	j := p.jobFromAccept(row.Accept)
	j.state = row.State
	j.started = row.Started
	j.finished = row.Finished
	j.exploration = row.Exploration
	j.attempts = row.Attempts
	j.checkpoint = row.Checkpoint
	switch {
	case row.State == StateQuarantined:
		// Quarantined rows keep their decoded document (a requeue re-runs
		// them) but carry the preserved diagnostics.
		j.err = errors.New(row.Err)
		j.kind = row.Kind
	case row.State.Terminal():
		j.doc, j.raw = nil, nil
		j.checkpoint = nil
		if row.State == StateFailed {
			j.err = errors.New(row.Err)
			j.kind = row.Kind
		}
		if len(row.Report) > 0 {
			rep := &obs.RunReport{}
			if err := json.Unmarshal(row.Report, rep); err == nil {
				j.report = rep
			}
		}
	}
	p.insertRecoveredLocked(j)
	// Failed and quarantined jobs must not absorb equivalent
	// resubmissions: undo the content registration insertLocked made.
	if (row.State == StateFailed || row.State == StateQuarantined) &&
		j.hash != "" && p.mem.byHash[j.hash] == j.id {
		delete(p.mem.byHash, j.hash)
	}
}

// applyWALRecord replays one log record onto the table, idempotently.
func (p *PersistentStore) applyWALRecord(rec *walRecord) {
	p.mem.mu.Lock()
	defer p.mem.mu.Unlock()
	switch rec.T {
	case walAccept:
		if _, exists := p.mem.jobs[rec.ID]; exists {
			return
		}
		p.insertRecoveredLocked(p.jobFromAccept(rec))
	case walRun:
		// Legacy start record (pre-attempt-budget logs): each one is one
		// worker start.
		if j := p.mem.jobs[rec.ID]; j != nil && !j.state.Terminal() {
			j.state = StateRunning
			j.started = rec.TS
			j.attempts++
		}
	case walAttempt:
		// Attempt records carry the absolute start count, so replaying a
		// record the snapshot already folded in is a no-op (max, not ++).
		if j := p.mem.jobs[rec.ID]; j != nil && !j.state.Terminal() {
			j.state = StateRunning
			j.started = rec.TS
			if rec.Attempt > j.attempts {
				j.attempts = rec.Attempt
			}
		}
	case walCheckpoint:
		if j := p.mem.jobs[rec.ID]; j != nil && !j.state.Terminal() && len(rec.Ckpt) > 0 {
			j.checkpoint = rec.Ckpt
		}
	case walQuarantine:
		if j := p.mem.jobs[rec.ID]; j != nil && !j.state.Terminal() {
			p.mem.quarantineLocked(j, rec.Err, rec.TS)
			if rec.Attempt > j.attempts {
				j.attempts = rec.Attempt
			}
		}
	case walRequeue:
		if j := p.mem.jobs[rec.ID]; j != nil && j.state == StateQuarantined {
			_ = p.mem.requeueLocked(j, rec.TS)
		}
	case walFinish:
		j := p.mem.jobs[rec.ID]
		if j == nil || j.state.Terminal() {
			return
		}
		j.finished = rec.TS
		j.doc, j.raw = nil, nil
		j.exploration = rec.Exploration
		if rec.Err != "" || rec.Kind != "" {
			j.state = StateFailed
			j.err = errors.New(rec.Err)
			j.kind = rec.Kind
			if j.hash != "" && p.mem.byHash[j.hash] == j.id {
				delete(p.mem.byHash, j.hash)
			}
		} else {
			j.state = StateDone
			if len(rec.Report) > 0 {
				rep := &obs.RunReport{}
				if err := json.Unmarshal(rec.Report, rep); err == nil {
					j.report = rep
				}
			}
		}
	case walDrop:
		if j := p.mem.jobs[rec.ID]; j != nil {
			delete(p.mem.jobs, j.id)
			if j.idemKey != "" {
				delete(p.mem.byKey, j.idemKey)
			}
			if j.hash != "" && p.mem.byHash[j.hash] == j.id {
				delete(p.mem.byHash, j.hash)
			}
		}
	}
}

// jobFromAccept rebuilds a queued Job from an accept record, re-decoding
// the canonical document. A document that no longer decodes (disk damage
// inside an intact CRC frame, or a schema change across versions) yields
// a job pre-failed with KindInternal rather than a recovery abort.
func (p *PersistentStore) jobFromAccept(rec *walRecord) *Job {
	j := &Job{
		id:        rec.ID,
		idemKey:   rec.Key,
		hash:      rec.Hash,
		state:     StateQueued,
		board:     rec.Board,
		submitted: rec.TS,
		raw:       rec.Doc,
		explore:   rec.Explore,
		timeout:   time.Duration(rec.TimeoutNS),
	}
	if tc, ok := obs.ParseTraceContext(rec.Trace); ok {
		j.trace = tc
	}
	if len(rec.Doc) > 0 {
		dec, err := boardio.Decode(bytes.NewReader(rec.Doc))
		if err != nil {
			p.opts.Log.Error("recovered job document no longer decodes", "job", rec.ID, "err", err)
			j.state = StateFailed
			j.finished = time.Now()
			j.err = fmt.Errorf("server: recovered document undecodable: %w", err)
			j.kind = KindInternal
			j.raw = nil
			return j
		}
		j.doc = dec
		j.opt = sprout.RouteOptions{
			Layer:          dec.RoutingLayer,
			Budgets:        dec.Budgets,
			Config:         dec.Config,
			WithManual:     rec.Manual,
			SkipExtract:    rec.SkipExtract,
			ExploreWorkers: rec.ExploreWorkers,
		}
	} else {
		j.state = StateFailed
		j.finished = time.Now()
		j.err = errors.New("server: accept record carries no document")
		j.kind = KindInternal
	}
	return j
}

// insertRecoveredLocked registers a replayed job and advances the id
// counter past its sequence number. Callers hold mem.mu.
func (p *PersistentStore) insertRecoveredLocked(j *Job) {
	p.mem.insertLocked(j)
	if n, ok := p.mem.jobSeq(j.id); ok && n > p.mem.next {
		p.mem.next = n
	}
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

// appendLocked writes one record and runs the compaction countdown.
// Callers hold p.mu.
func (p *PersistentStore) appendLocked(rec *walRecord, sync bool) error {
	var start time.Time
	if p.opts.Tracer.Enabled() {
		start = time.Now()
	}
	if err := p.wal.append(rec, sync); err != nil {
		return err
	}
	if p.opts.Tracer.Enabled() {
		p.opts.Tracer.Histogram(obs.MWALAppendMS).Observe(float64(time.Since(start)) / 1e6)
	}
	p.opts.Tracer.Counter(obs.MWALAppends).Add(1)
	p.appends++
	if p.appends >= p.opts.SnapshotEvery {
		if err := p.compactLocked(); err != nil {
			// Compaction failure leaves a longer WAL, not lost state.
			p.opts.Log.Error("wal compaction failed", "err", err)
		}
	}
	return nil
}

// compactLocked folds the current table into snapshot.json (write temp,
// fsync, rename) and truncates the WAL. Callers hold p.mu.
func (p *PersistentStore) compactLocked() error {
	if p.wal.killed {
		return nil
	}
	var start time.Time
	if p.opts.Tracer.Enabled() {
		start = time.Now()
	}
	snap := p.snapshotRows()
	data, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("server: encode snapshot: %w", err)
	}
	tmp := filepath.Join(p.dir, snapFileName+".tmp")
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
	if err := os.Rename(tmp, filepath.Join(p.dir, snapFileName)); err != nil {
		return fmt.Errorf("server: snapshot rename: %w", err)
	}
	// The rename is only durable once the directory entry itself is on
	// disk: without this fsync a power loss can leave the directory
	// pointing at the old snapshot while the WAL below gets truncated —
	// silently losing every job the new snapshot folded in.
	if err := syncDir(p.dir); err != nil {
		return fmt.Errorf("server: snapshot dir fsync: %w", err)
	}
	if err := p.wal.reset(); err != nil {
		return err
	}
	p.appends = 0
	if p.opts.Tracer.Enabled() {
		p.opts.Tracer.Histogram(obs.MWALCompactMS).Observe(float64(time.Since(start)) / 1e6)
	}
	p.opts.Tracer.Counter(obs.MWALCompactions).Add(1)
	p.opts.Log.Info("wal compacted", "jobs", len(snap.Jobs))
	return nil
}

// snapshotRows captures every job as a snapshot row.
func (p *PersistentStore) snapshotRows() *storeSnap {
	p.mem.mu.Lock()
	defer p.mem.mu.Unlock()
	snap := &storeSnap{Next: p.mem.next}
	for _, j := range p.mem.jobs {
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

// Create registers the job in memory, then makes the acceptance durable
// (fsync unless NoSync) before the submitter sees a 202. A WAL failure
// unwinds the in-memory registration: the submission is rejected rather
// than accepted-without-durability.
func (p *PersistentStore) Create(spec JobSpec, now time.Time) (*Job, DedupeKind, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	j, dedupe, err := p.mem.Create(spec, now)
	if err != nil || dedupe != DedupeNone {
		return j, dedupe, err
	}
	if err := p.appendLocked(acceptRecord(j), !p.opts.NoSync); err != nil {
		p.mem.Drop(j)
		return nil, DedupeNone, fmt.Errorf("server: persist accept: %w", err)
	}
	return j, DedupeNone, nil
}

// Drop unwinds an accept rejected by admission. The drop record is not
// fsynced: losing it merely resurrects a job the client was told to
// retry, which then runs to a terminal state — wasted work, not loss.
func (p *PersistentStore) Drop(j *Job) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.mem.Drop(j)
	if err := p.appendLocked(&walRecord{T: walDrop, ID: j.id, TS: time.Now()}, false); err != nil {
		p.opts.Log.Warn("wal drop record failed", "job", j.id, "err", err)
	}
}

// SetRunning forwards to the table and makes the start durable as an
// attempt record, fsynced (unless NoSync) before the worker touches the
// board: the attempt budget only works if a start that SIGKILLs the
// process a microsecond later is still counted at the next recovery. A
// failed append is logged, not fatal — an undercounted attempt grants a
// poison job one extra try, it never loses a job.
func (p *PersistentStore) SetRunning(j *Job, tracer *obs.Tracer, now time.Time) (*boardio.Decoded, sprout.RouteOptions, bool, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	doc, opt, explore, ok := p.mem.SetRunning(j, tracer, now)
	if ok {
		rec := &walRecord{T: walAttempt, ID: j.id, TS: now, Attempt: j.attempts}
		if err := p.appendLocked(rec, !p.opts.NoSync); err != nil {
			p.opts.Log.Warn("wal attempt record failed", "job", j.id, "err", err)
		}
	}
	return doc, opt, explore, ok
}

// NoteExploration is memory-only; the digest rides the finish record.
func (p *PersistentStore) NoteExploration(j *Job, ex *sprout.OrderExploration) {
	p.mem.NoteExploration(j, ex)
}

// Finish applies the terminal transition and logs it with the run report,
// so results survive restart. Unsynced: a finish record lost to a crash
// re-runs the job (at-least-once execution), it never loses it.
func (p *PersistentStore) Finish(j *Job, report *obs.RunReport, err error, now time.Time) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.mem.Finish(j, report, err, now) {
		return false
	}
	rec := &walRecord{T: walFinish, ID: j.id, TS: now, Exploration: j.exploration}
	if err != nil {
		rec.Err = err.Error()
		rec.Kind = classify(err)
		if rec.Err == "" {
			rec.Err = "unknown failure"
		}
	} else if report != nil {
		if b, merr := json.Marshal(report); merr == nil {
			rec.Report = b
		}
	}
	if aerr := p.appendLocked(rec, false); aerr != nil {
		p.opts.Log.Warn("wal finish record failed", "job", j.id, "err", aerr)
	}
	return true
}

func (p *PersistentStore) Get(id string) *Job                          { return p.mem.Get(id) }
func (p *PersistentStore) NonTerminal() []*Job                         { return p.mem.NonTerminal() }
func (p *PersistentStore) Status(j *Job) Status                        { return p.mem.Status(j) }
func (p *PersistentStore) Result(j *Job) (*obs.RunReport, *obs.Tracer) { return p.mem.Result(j) }
func (p *PersistentStore) List(state JobState) []Status                { return p.mem.List(state) }
func (p *PersistentStore) Quarantined() []*Job                         { return p.mem.Quarantined() }
func (p *PersistentStore) Checkpoint(j *Job) []byte                    { return p.mem.Checkpoint(j) }

// Quarantine force-transitions a non-terminal job into quarantine and
// logs it durably (fsynced unless NoSync — quarantine is a promise the
// job will not run again without an operator, so it must hold across a
// crash).
func (p *PersistentStore) Quarantine(j *Job, reason string, now time.Time) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.mem.Quarantine(j, reason, now) {
		return false
	}
	rec := &walRecord{T: walQuarantine, ID: j.id, TS: now, Err: reason, Kind: KindPoisoned, Attempt: j.attempts}
	if err := p.appendLocked(rec, !p.opts.NoSync); err != nil {
		p.opts.Log.Warn("wal quarantine record failed", "job", j.id, "err", err)
	}
	p.opts.Tracer.Counter(obs.MJobsQuarantined).Add(1)
	return true
}

// Requeue revives a quarantined job. The requeue record is fsynced
// (unless NoSync) before the caller may enqueue the job: a revival the
// disk never saw would re-quarantine the job at the next recovery while
// a worker is already rerunning it. A WAL failure unwinds the in-memory
// transition so table and log stay consistent.
func (p *PersistentStore) Requeue(j *Job, now time.Time) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.mem.Requeue(j, now); err != nil {
		return err
	}
	if aerr := p.appendLocked(&walRecord{T: walRequeue, ID: j.id, TS: now}, !p.opts.NoSync); aerr != nil {
		p.mem.Quarantine(j, "server: requeue not durable: "+aerr.Error(), now)
		return fmt.Errorf("server: persist requeue: %w", aerr)
	}
	return nil
}

// SaveCheckpoint durably records the job's latest exploration checkpoint
// (fsynced unless NoSync — a checkpoint that vanishes in the crash it
// exists to survive is dead weight). Errors are returned, not fatal: the
// sweep continues and simply loses resume coverage for this interval.
func (p *PersistentStore) SaveCheckpoint(j *Job, frame []byte) error {
	if ferr := faultinject.Check(faultinject.SiteCkptWrite); ferr != nil {
		p.opts.Tracer.Counter(obs.MWALCkptWriteErrors).Add(1)
		return fmt.Errorf("server: checkpoint write: %w", ferr)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.mem.Status(j).State.Terminal() {
		return nil
	}
	if err := p.mem.SaveCheckpoint(j, frame); err != nil {
		return err
	}
	rec := &walRecord{T: walCheckpoint, ID: j.id, TS: time.Now(), Ckpt: frame}
	if err := p.appendLocked(rec, !p.opts.NoSync); err != nil {
		p.opts.Tracer.Counter(obs.MWALCkptWriteErrors).Add(1)
		return fmt.Errorf("server: persist checkpoint: %w", err)
	}
	p.opts.Tracer.Counter(obs.MWALCkptWrites).Add(1)
	return nil
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

// Recovered returns the jobs found accepted but unfinished at open, in
// acceptance order.
func (p *PersistentStore) Recovered() []*Job { return p.recovered }

// Close snapshots once more and closes the WAL.
func (p *PersistentStore) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.compactLocked(); err != nil {
		p.opts.Log.Warn("final compaction failed", "err", err)
	}
	return p.wal.close()
}

// Kill simulates the process dying right now: every subsequent WAL write
// silently vanishes while the in-memory engine keeps going, exactly the
// observable disk state a SIGKILL leaves behind. The chaos tests crash a
// live store with Kill, reopen the directory, and assert recovery.
func (p *PersistentStore) Kill() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.wal.kill()
}
