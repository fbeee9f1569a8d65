package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"sprout"
	"sprout/internal/boardio"
	"sprout/internal/obs"
	"sprout/internal/sparse"
)

// JobState is the lifecycle state of one routing job.
type JobState string

const (
	// StateQueued: accepted by admission control, waiting for a worker.
	StateQueued JobState = "queued"
	// StateRunning: a worker is routing the board.
	StateRunning JobState = "running"
	// StateDone: terminal, result available.
	StateDone JobState = "done"
	// StateFailed: terminal, the job ended with a typed error.
	StateFailed JobState = "failed"
	// StateQuarantined: terminal, the job exhausted its attempt budget
	// without ever finishing — the crash-loop shape. Quarantined jobs keep
	// their document so an operator requeue can revive them, but nothing
	// runs them until that happens.
	StateQuarantined JobState = "quarantined"
)

// Terminal reports whether the state is final. Every accepted job must
// reach a terminal state — that is the server's zero-loss invariant,
// asserted by the chaos test. Quarantine counts as terminal: the job
// will not progress on its own, only an explicit requeue revives it.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateQuarantined
}

// ErrKind classifies a job failure for the HTTP layer; the mapping to
// client-visible status codes is the DESIGN "Failure semantics" matrix.
type ErrKind string

const (
	// KindDeadline: the per-job deadline expired (504).
	KindDeadline ErrKind = "deadline"
	// KindShutdown: the server drained or cancelled the job while
	// shutting down (503).
	KindShutdown ErrKind = "shutdown"
	// KindPanic: a contained internal panic (500).
	KindPanic ErrKind = "panic"
	// KindSolve: every rung of the solver fallback ladder failed (500).
	KindSolve ErrKind = "solve"
	// KindInternal: any other routing failure (500).
	KindInternal ErrKind = "internal"
	// KindPoisoned: the job was quarantined after exhausting its attempt
	// budget — it kept taking the process down without reaching a terminal
	// state (422).
	KindPoisoned ErrKind = "poisoned"
)

// ErrNotQuarantined rejects a requeue of a job that is not quarantined
// (409): only jobs parked by the poison-quarantine sweep can be revived.
var ErrNotQuarantined = errors.New("server: only quarantined jobs can be requeued")

// classify maps a job error to its ErrKind. Order matters: shutdown and
// deadline are checked before the generic unwrap chains.
func classify(err error) ErrKind {
	switch {
	case errors.Is(err, sprout.ErrShuttingDown), errors.Is(err, context.Canceled):
		// Only the server cancels a job context, and it only does so while
		// draining; a bare Canceled is therefore a shutdown casualty.
		return KindShutdown
	case errors.Is(err, context.DeadlineExceeded):
		return KindDeadline
	}
	var pe *sprout.PanicError
	if errors.As(err, &pe) {
		return KindPanic
	}
	var se *sparse.SolveError
	if errors.As(err, &se) {
		return KindSolve
	}
	return KindInternal
}

// Job is one accepted routing request and its outcome. Fields are
// written under the store lock; callers receive copies via Status.
type Job struct {
	id      string
	idemKey string
	// hash is the canonical content identity of the submission ("" when
	// the submission carried no parseable document). Equivalent
	// submissions singleflight onto the job registered under their hash.
	hash  string
	state JobState
	board string

	submitted time.Time
	started   time.Time
	finished  time.Time

	err  error
	kind ErrKind

	// doc and opt are the decoded request, consumed by the worker.
	doc *boardio.Decoded
	opt sprout.RouteOptions
	// raw is the canonical document encoding, logged in the accept
	// record so the job can be re-decoded and re-run after a crash
	// (cleared once the job is terminal).
	raw []byte
	// explore marks an order-exploration job (worker calls the explore
	// function instead of the route function).
	explore bool
	// exploration summarizes a finished exploration job for the status
	// surface (nil for plain routing jobs).
	exploration *ExplorationSummary
	// timeout is the per-job deadline.
	timeout time.Duration
	// attempts counts how many times a worker started this job. A store
	// with a directory makes each start durable before the board is
	// touched, so recovery can quarantine a job that keeps killing the
	// process instead of re-enqueueing it forever.
	attempts int
	// checkpoint is the job's latest durable exploration checkpoint (an
	// opaque frame decoded by the sprout package), nil for plain routing
	// jobs and cleared once the job is terminal via Finish.
	checkpoint []byte
	// trace is the distributed-trace position propagated with the
	// submission (zero when the submitter carried no X-Sprout-Trace);
	// the worker's tracer continues it. Immutable after Create.
	trace obs.TraceContext
	// report is the per-job machine-readable run summary (nil until
	// done; a failed run may still carry a partial tracer).
	report *obs.RunReport
	// tracer is the job's private tracer, kept so the Chrome trace of
	// the run — successful or failed — can be fetched afterwards.
	tracer *obs.Tracer
}

// ID returns the job id (stable across restarts of a store opened with
// OpenStore).
func (j *Job) ID() string { return j.id }

// ExplorationSummary is the status-surface digest of an exploration
// job: the winning order and how the sweep went.
type ExplorationSummary struct {
	// BestOrder is the winning net sequence (net ids).
	BestOrder []int `json:"best_order,omitempty"`
	// BestScore is the winner's current-weighted total resistance.
	BestScore float64 `json:"best_score,omitempty"`
	// OrdersTried and OrdersFailed count evaluated and failed orders.
	OrdersTried  int `json:"orders_tried"`
	OrdersFailed int `json:"orders_failed,omitempty"`
	// PrefixHits and PrefixMisses report the explorer's prefix-cache
	// effectiveness: misses count actual rail routes, hits count memoized
	// reuses.
	PrefixHits   int64 `json:"prefix_hits,omitempty"`
	PrefixMisses int64 `json:"prefix_misses,omitempty"`
}

// Status is the JSON-facing snapshot of a job.
type Status struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	Board string   `json:"board,omitempty"`
	// Exploration carries the order-sweep digest for exploration jobs
	// once the worker finished the sweep (nil otherwise).
	Exploration *ExplorationSummary `json:"exploration,omitempty"`
	// Deduped marks a submission that was answered from an existing job,
	// via its idempotency key or its canonical content hash.
	Deduped bool `json:"deduped,omitempty"`
	// Error and ErrorKind are set on failed and quarantined jobs.
	Error     string  `json:"error,omitempty"`
	ErrorKind ErrKind `json:"error_kind,omitempty"`
	// Attempts counts worker starts (1 for a job that ran once).
	Attempts int `json:"attempts,omitempty"`
	// Durations in milliseconds (0 until the phase completes).
	QueueMS float64 `json:"queue_ms,omitempty"`
	RunMS   float64 `json:"run_ms,omitempty"`
}

// JobSpec is the store-facing shape of one submission, assembled by the
// engine's Submit path and, on replay, from the logged accept record.
type JobSpec struct {
	// IdemKey is the client idempotency key ("" = none).
	IdemKey string
	// Hash is the canonical content hash of the document ("" disables
	// content dedupe for this submission).
	Hash string
	// Raw is the canonical document encoding; a store with a directory
	// appends it to the accept record so the job survives a crash.
	Raw []byte
	// Doc and Opt are the decoded request the worker consumes.
	Doc *boardio.Decoded
	Opt sprout.RouteOptions
	// Timeout is the per-job deadline; Explore selects the exploration
	// worker path.
	Timeout time.Duration
	Explore bool
	// Trace continues the submitter's distributed trace (zero = start a
	// fresh one when the job runs).
	Trace obs.TraceContext
}

// DedupeKind reports how Create matched a submission to an existing job.
type DedupeKind int

const (
	// DedupeNone: a fresh job was created.
	DedupeNone DedupeKind = iota
	// DedupeKey: the idempotency key had been seen before.
	DedupeKey
	// DedupeContent: a byte-different but canonically equivalent document
	// singleflighted onto an existing live job.
	DedupeContent
)

// Store is the job table behind the engine: idempotent creation,
// lifecycle transitions with terminal-once semantics, and snapshots for
// the HTTP surface. It outlives the worker pool: results stay fetchable
// after the drain so clients can collect the outcome of every accepted
// job.
//
// A store opened on a directory (OpenStore) also logs every transition
// to a write-ahead log and replays that log through the same transitions
// when it is opened again (persist.go). A store with no directory (the
// engine's default) keeps results until the process exits.
//
// Finish transitions a job at most once; late writers are dropped.
type Store struct {
	opts StoreOptions
	dir  string
	// wal is the open log, nil for an in-memory store.
	wal *walFile

	// logMu serializes each transition with its WAL append, so the log
	// order always matches the table order. It is taken before mu.
	// Reads take only mu, so they never wait on an fsync.
	logMu   sync.Mutex
	appends int

	mu     sync.Mutex
	next   int
	jobs   map[string]*Job
	byKey  map[string]string // idempotency key -> job id
	byHash map[string]string // canonical content hash -> job id

	// recovered lists the jobs OpenStore found accepted but unfinished.
	recovered []*Job
}

// newStore builds an empty store with no directory.
func newStore(opts StoreOptions) *Store {
	return &Store{
		opts:   opts.normalize(),
		jobs:   map[string]*Job{},
		byKey:  map[string]string{},
		byHash: map[string]string{},
	}
}

// newJob builds the queued job for one submission. Create and the
// replay of an accept record both build their jobs here.
//
// Every time a job keeps is stripped of its monotonic reading (Round(0)):
// the WAL and snapshot keep wall-clock time only, and a status duration
// must not change when the job is reloaded from them.
func newJob(id, board string, spec JobSpec, now time.Time) *Job {
	return &Job{
		id:        id,
		idemKey:   spec.IdemKey,
		hash:      spec.Hash,
		state:     StateQueued,
		board:     board,
		submitted: now.Round(0),
		doc:       spec.Doc,
		opt:       spec.Opt,
		raw:       spec.Raw,
		explore:   spec.Explore,
		timeout:   spec.Timeout,
		trace:     spec.Trace,
	}
}

// routeOptions builds a job's routing options: the layer, budgets and
// router config come from its document, the rest from the submission.
func routeOptions(dec *boardio.Decoded, opt SubmitOptions) sprout.RouteOptions {
	return sprout.RouteOptions{
		Layer:          dec.RoutingLayer,
		Budgets:        dec.Budgets,
		Config:         dec.Config,
		WithManual:     opt.WithManual,
		SkipExtract:    opt.SkipExtract,
		ExploreWorkers: opt.ExploreWorkers,
	}
}

// jobID formats the id for the n-th job of this store. The optional
// name (StoreOptions.Name) makes ids unique across replicas, which the
// shard proxy's scatter-on-miss lookup relies on.
func (s *Store) jobID(n int) string {
	if s.opts.Name != "" {
		return fmt.Sprintf("%s-job-%d", s.opts.Name, n)
	}
	return fmt.Sprintf("job-%d", n)
}

// jobSeq parses the sequence number back out of an id minted by jobID
// (ok=false for foreign ids). Replay uses it to restore the id counter.
func (s *Store) jobSeq(id string) (int, bool) {
	rest, found := strings.CutPrefix(id, "job-")
	if s.opts.Name != "" {
		rest, found = strings.CutPrefix(id, s.opts.Name+"-job-")
	}
	if !found {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// sortBySeq orders jobs by acceptance: the sequence number embedded in
// the id, which persists across restarts.
func (s *Store) sortBySeq(jobs []*Job) {
	sort.Slice(jobs, func(a, b int) bool {
		na, _ := s.jobSeq(jobs[a].id)
		nb, _ := s.jobSeq(jobs[b].id)
		return na < nb
	})
}

// Create registers a new queued job, or returns the existing job this
// submission dedupes onto: by idempotency key first, else — only for
// keyless submissions — by canonical content hash. A submission that
// carries a fresh explicit key is honored as a distinct run even when
// its content matches an existing job. Failed jobs never absorb new
// submissions: their hash registration is cleared so an equivalent
// resubmission gets a fresh attempt.
//
// A store with a directory makes the acceptance durable (fsync unless
// NoSync) before the submitter sees a 202. A WAL failure unwinds the
// registration: the submission is rejected rather than accepted without
// durability, and the error is non-nil.
func (s *Store) Create(spec JobSpec, now time.Time) (*Job, DedupeKind, error) {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	s.mu.Lock()
	if spec.IdemKey != "" {
		if id, ok := s.byKey[spec.IdemKey]; ok {
			j := s.jobs[id]
			s.mu.Unlock()
			return j, DedupeKey, nil
		}
	} else if spec.Hash != "" {
		if id, ok := s.byHash[spec.Hash]; ok {
			j := s.jobs[id]
			s.mu.Unlock()
			return j, DedupeContent, nil
		}
	}
	s.next++
	j := newJob(s.jobID(s.next), spec.Doc.Board.Name, spec, now)
	s.insertLocked(j)
	rec := acceptRecord(j)
	s.mu.Unlock()
	if err := s.appendLocked(rec, !s.opts.NoSync); err != nil {
		s.mu.Lock()
		s.dropLocked(j)
		s.mu.Unlock()
		return nil, DedupeNone, fmt.Errorf("server: persist accept: %w", err)
	}
	return j, DedupeNone, nil
}

// insertLocked registers a job in the tables and advances the id
// counter past its sequence number. Callers hold s.mu.
func (s *Store) insertLocked(j *Job) {
	s.jobs[j.id] = j
	if j.idemKey != "" {
		s.byKey[j.idemKey] = j.id
	}
	if j.hash != "" {
		if _, taken := s.byHash[j.hash]; !taken {
			s.byHash[j.hash] = j.id
		}
	}
	if n, ok := s.jobSeq(j.id); ok && n > s.next {
		s.next = n
	}
}

// forgetHashLocked stops a job from absorbing equivalent resubmissions.
// Callers hold s.mu.
func (s *Store) forgetHashLocked(j *Job) {
	if j.hash != "" && s.byHash[j.hash] == j.id {
		delete(s.byHash, j.hash)
	}
}

// Drop removes a job that was never accepted (queue full). Dropping is
// not loss: the submitter got a 429 and knows to retry. The drop record
// is not fsynced: losing it merely resurrects a job the client was told
// to retry, which then runs to a terminal state — wasted work, not loss.
func (s *Store) Drop(j *Job) {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	s.mu.Lock()
	s.dropLocked(j)
	s.mu.Unlock()
	if err := s.appendLocked(&walRecord{T: walDrop, ID: j.id, TS: time.Now()}, false); err != nil {
		s.opts.Log.Warn("wal drop record failed", "job", j.id, "err", err)
	}
}

// dropLocked unregisters a job. Callers hold s.mu.
func (s *Store) dropLocked(j *Job) {
	delete(s.jobs, j.id)
	if j.idemKey != "" {
		delete(s.byKey, j.idemKey)
	}
	s.forgetHashLocked(j)
}

// Get returns the job by id (nil when unknown).
func (s *Store) Get(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// SetRunning transitions a queued job to running and hands the worker
// its payload. Returns ok=false when the job already reached a terminal
// state (e.g. failed by the drain sweep racing the worker), in which
// case the worker must not run it. The payload is read under the store
// lock so the worker never touches fields a finish may clear.
//
// The start is logged as an attempt record, fsynced (unless NoSync)
// before the worker touches the board: the attempt budget only works if
// a start that SIGKILLs the process a microsecond later is still counted
// at the next recovery. A failed append is logged, not fatal — an
// undercounted attempt grants a poison job one extra try, it never loses
// a job.
func (s *Store) SetRunning(j *Job, tracer *obs.Tracer, now time.Time) (doc *boardio.Decoded, opt sprout.RouteOptions, explore, ok bool) {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	s.mu.Lock()
	if j.state.Terminal() {
		s.mu.Unlock()
		return nil, sprout.RouteOptions{}, false, false
	}
	j.state = StateRunning
	j.started = now.Round(0)
	j.attempts++
	j.tracer = tracer
	doc, opt, explore = j.doc, j.opt, j.explore
	rec := &walRecord{T: walAttempt, ID: j.id, TS: now, Attempt: j.attempts}
	s.mu.Unlock()
	if err := s.appendLocked(rec, !s.opts.NoSync); err != nil {
		s.opts.Log.Warn("wal attempt record failed", "job", j.id, "err", err)
	}
	return doc, opt, explore, true
}

// NoteExploration records the sweep digest of an exploration job before
// it goes terminal, so the status surface can report the winning order.
// It is not logged on its own: the digest rides the finish record.
func (s *Store) NoteExploration(j *Job, ex *sprout.OrderExploration) {
	sum := &ExplorationSummary{
		BestScore:    ex.BestScore,
		OrdersTried:  ex.Tried,
		OrdersFailed: len(ex.Failed),
		PrefixHits:   ex.Stats.PrefixHits,
		PrefixMisses: ex.Stats.PrefixMisses,
	}
	for _, id := range ex.BestOrder {
		sum.BestOrder = append(sum.BestOrder, int(id))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	j.exploration = sum
}

// Finish transitions a job to its terminal state exactly once; late
// writers (a worker completing after the drain sweep already failed the
// job) are dropped, keeping the first terminal outcome authoritative.
// The return reports whether this call was the terminal transition.
// won, when non-nil, runs only for that call, with the job's attempt
// count, before any reader can see the terminal state: what it records
// (the job's metrics) is never behind a status that reads terminal. It
// runs under the store's locks, so it must not call the store.
//
// The finish record carries the run report, so results survive restart.
// It is not fsynced: a finish record lost to a crash re-runs the job
// (at-least-once execution), it never loses it.
func (s *Store) Finish(j *Job, report *obs.RunReport, err error, now time.Time, won func(attempts int)) bool {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	kind := classify(err)
	s.mu.Lock()
	finished := s.finishLocked(j, report, err, kind, now)
	if finished && won != nil {
		won(j.attempts)
	}
	rec := &walRecord{T: walFinish, ID: j.id, TS: now, Exploration: j.exploration}
	s.mu.Unlock()
	if !finished {
		return false
	}
	if err != nil {
		rec.Err, rec.Kind = err.Error(), kind
		if rec.Err == "" {
			rec.Err = "unknown failure"
		}
	} else if report != nil {
		if b, merr := json.Marshal(report); merr == nil {
			rec.Report = b
		}
	}
	if aerr := s.appendLocked(rec, false); aerr != nil {
		s.opts.Log.Warn("wal finish record failed", "job", j.id, "err", aerr)
	}
	return true
}

// finishLocked is the terminal transition: a non-nil err fails the job
// with the given kind, a nil err marks it done. Callers hold s.mu.
func (s *Store) finishLocked(j *Job, report *obs.RunReport, err error, kind ErrKind, now time.Time) bool {
	if j.state.Terminal() {
		return false
	}
	j.finished = now.Round(0)
	j.report = report
	// The decoded board is dead weight once the job is terminal; free it
	// so a long-lived server does not accumulate every board ever routed.
	// The checkpoint likewise: it only matters while the job can still run.
	j.doc = nil
	j.raw = nil
	j.checkpoint = nil
	if err != nil {
		j.state = StateFailed
		j.err = err
		j.kind = kind
		// A failed job must not absorb equivalent resubmissions — clear
		// its content registration so the next one runs fresh.
		s.forgetHashLocked(j)
	} else {
		j.state = StateDone
	}
	return true
}

// NonTerminal snapshots every job that has not reached a terminal state.
func (s *Store) NonTerminal() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*Job
	for _, j := range s.jobs {
		if !j.state.Terminal() {
			out = append(out, j)
		}
	}
	return out
}

// Status snapshots a job for the HTTP layer.
func (s *Store) Status(j *Job) Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statusLocked(j)
}

func (s *Store) statusLocked(j *Job) Status {
	st := Status{ID: j.id, State: j.state, Board: j.board, Exploration: j.exploration, Attempts: j.attempts}
	if j.err != nil {
		st.Error = j.err.Error()
		st.ErrorKind = j.kind
	}
	if !j.started.IsZero() {
		st.QueueMS = float64(j.started.Sub(j.submitted).Nanoseconds()) / 1e6
		if !j.finished.IsZero() {
			st.RunMS = float64(j.finished.Sub(j.started).Nanoseconds()) / 1e6
		}
	} else if !j.finished.IsZero() {
		// Never started: failed straight from the queue (drain sweep).
		st.QueueMS = float64(j.finished.Sub(j.submitted).Nanoseconds()) / 1e6
	}
	return st
}

// Result returns the job's report and tracer (both may be nil).
func (s *Store) Result(j *Job) (*obs.RunReport, *obs.Tracer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.report, j.tracer
}

// Recovered returns the jobs OpenStore found accepted but unfinished, in
// acceptance order; the engine re-enqueues them on Start. Empty for an
// in-memory store.
func (s *Store) Recovered() []*Job { return s.recovered }

// List snapshots every job in the given state (all when state is ""),
// in acceptance order.
func (s *Store) List(state JobState) []Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		if state == "" || j.state == state {
			jobs = append(jobs, j)
		}
	}
	s.sortBySeq(jobs)
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = s.statusLocked(j)
	}
	return out
}

// Quarantined returns the quarantined jobs in acceptance order. The
// engine sizes its queue so each has a requeue slot.
func (s *Store) Quarantined() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*Job
	for _, j := range s.jobs {
		if j.state == StateQuarantined {
			out = append(out, j)
		}
	}
	s.sortBySeq(out)
	return out
}

// Quarantine force-transitions a non-terminal job into quarantine with
// the given diagnostic; false when the job was already terminal. The
// quarantine record is fsynced unless NoSync: quarantine is a promise
// the job will not run again without an operator, so it must hold
// across a crash.
func (s *Store) Quarantine(j *Job, reason string, now time.Time) bool {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	s.mu.Lock()
	quarantined := s.quarantineLocked(j, reason, now)
	rec := &walRecord{T: walQuarantine, ID: j.id, TS: now, Err: reason, Kind: KindPoisoned, Attempt: j.attempts}
	s.mu.Unlock()
	if !quarantined {
		return false
	}
	if err := s.appendLocked(rec, !s.opts.NoSync); err != nil {
		s.opts.Log.Warn("wal quarantine record failed", "job", j.id, "err", err)
	}
	s.opts.Tracer.Counter(obs.MJobsQuarantined).Add(1)
	return true
}

// quarantineLocked parks a non-terminal job. Like a failure, a
// quarantined job must not absorb equivalent resubmissions, but unlike a
// failure it keeps its document so a requeue can re-run it. Callers
// hold s.mu.
func (s *Store) quarantineLocked(j *Job, reason string, now time.Time) bool {
	if j.state.Terminal() {
		return false
	}
	j.state = StateQuarantined
	j.kind = KindPoisoned
	j.err = errors.New(reason)
	j.finished = now.Round(0)
	s.forgetHashLocked(j)
	return true
}

// Requeue revives a quarantined job: back to queued with a cleared
// outcome and a fresh attempt budget. The stored checkpoint survives, so
// a requeued exploration job resumes instead of restarting. It fails
// when the job is not quarantined or when the transition could not be
// made durable.
//
// The requeue record is fsynced (unless NoSync) before the caller may
// enqueue the job: a revival the disk never saw would re-quarantine the
// job at the next recovery while a worker is already rerunning it. A WAL
// failure unwinds the transition so table and log stay consistent.
func (s *Store) Requeue(j *Job, now time.Time) error {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	s.mu.Lock()
	err := s.requeueLocked(j)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	if aerr := s.appendLocked(&walRecord{T: walRequeue, ID: j.id, TS: now}, !s.opts.NoSync); aerr != nil {
		s.mu.Lock()
		s.quarantineLocked(j, "server: requeue not durable: "+aerr.Error(), now)
		s.mu.Unlock()
		return fmt.Errorf("server: persist requeue: %w", aerr)
	}
	return nil
}

// requeueLocked is the revival transition. Callers hold s.mu.
func (s *Store) requeueLocked(j *Job) error {
	if j.state != StateQuarantined {
		return fmt.Errorf("server: requeue %s: state is %q: %w", j.id, j.state, ErrNotQuarantined)
	}
	j.state = StateQueued
	j.attempts = 0
	j.err = nil
	j.kind = ""
	j.started = time.Time{}
	j.finished = time.Time{}
	return nil
}

// SaveCheckpoint records the job's latest exploration checkpoint; a
// no-op once the job is terminal. A store with a directory logs the
// frame first (fsynced unless NoSync — a checkpoint that vanishes in the
// crash it exists to survive is dead weight) and keeps it only once the
// log has it. Errors are returned, not fatal: the sweep continues and
// simply loses resume coverage for this interval.
func (s *Store) SaveCheckpoint(j *Job, frame []byte) error {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	s.mu.Lock()
	terminal := j.state.Terminal()
	s.mu.Unlock()
	if terminal {
		return nil
	}
	rec := &walRecord{T: walCheckpoint, ID: j.id, TS: time.Now(), Ckpt: frame}
	if err := s.appendLocked(rec, !s.opts.NoSync); err != nil {
		s.opts.Tracer.Counter(obs.MWALCkptWriteErrors).Add(1)
		return fmt.Errorf("server: persist checkpoint: %w", err)
	}
	s.mu.Lock()
	s.setCheckpointLocked(j, frame)
	s.mu.Unlock()
	s.opts.Tracer.Counter(obs.MWALCkptWrites).Add(1)
	return nil
}

// setCheckpointLocked stores a checkpoint frame on a job that can still
// run. Callers hold s.mu.
func (s *Store) setCheckpointLocked(j *Job, frame []byte) {
	if !j.state.Terminal() {
		j.checkpoint = frame
	}
}

// Checkpoint returns the stored checkpoint frame (nil when none).
func (s *Store) Checkpoint(j *Job) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.checkpoint
}
