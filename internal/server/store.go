package server

import (
	"context"
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
	// raw is the canonical document encoding, kept by the persistent
	// store so the job can be re-decoded and re-run after a crash (nil in
	// the in-memory store, and cleared once the job is terminal).
	raw []byte
	// explore marks an order-exploration job (worker calls the explore
	// function instead of the route function).
	explore bool
	// exploration summarizes a finished exploration job for the status
	// surface (nil for plain routing jobs).
	exploration *ExplorationSummary
	// timeout is the per-job deadline.
	timeout time.Duration
	// attempts counts how many times a worker started this job. The
	// persistent store makes each start durable before the board is
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

// ID returns the job id (stable across restarts of a persistent store).
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
// engine's Submit path.
type JobSpec struct {
	// IdemKey is the client idempotency key ("" = none).
	IdemKey string
	// Hash is the canonical content hash of the document ("" disables
	// content dedupe for this submission).
	Hash string
	// Raw is the canonical document encoding; the persistent store
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

// JobStore is the job table behind the engine: idempotent creation,
// lifecycle transitions with terminal-once semantics, and snapshots for
// the HTTP surface. Two implementations exist: the in-memory memStore
// (PR 4 semantics — results live until the process exits) and the
// crash-safe persistStore (WAL + snapshot on disk; accepted jobs survive
// a SIGKILL and are re-enqueued on the next start).
//
// Every implementation must keep the terminal-once invariant: Finish
// transitions a job at most once, and late writers are dropped.
type JobStore interface {
	// Create registers a new queued job, or returns the existing one the
	// submission dedupes onto (dedupe != DedupeNone). A non-nil error
	// means the job could not be made durable and was not registered.
	Create(spec JobSpec, now time.Time) (j *Job, dedupe DedupeKind, err error)
	// Drop removes a job that was never accepted (queue full). Dropping
	// is not loss: the submitter got a 429 and knows to retry.
	Drop(j *Job)
	// Get returns the job by id (nil when unknown).
	Get(id string) *Job
	// SetRunning transitions a queued job to running and hands the worker
	// its payload; ok=false when the job already went terminal.
	SetRunning(j *Job, tracer *obs.Tracer, now time.Time) (doc *boardio.Decoded, opt sprout.RouteOptions, explore, ok bool)
	// NoteExploration records the sweep digest of an exploration job.
	NoteExploration(j *Job, ex *sprout.OrderExploration)
	// Finish transitions a job to its terminal state exactly once; the
	// return reports whether this call was the terminal transition.
	Finish(j *Job, report *obs.RunReport, err error, now time.Time) bool
	// NonTerminal snapshots every job not yet terminal.
	NonTerminal() []*Job
	// Status and Result snapshot a job for the HTTP layer.
	Status(j *Job) Status
	Result(j *Job) (*obs.RunReport, *obs.Tracer)
	// Recovered returns the jobs a restart found accepted but unfinished,
	// in original acceptance order; the engine re-enqueues them on Start.
	// Empty for the in-memory store.
	Recovered() []*Job
	// List snapshots every job in the given state (all jobs when state is
	// empty), in acceptance order.
	List(state JobState) []Status
	// Quarantined returns the jobs currently in quarantine, in acceptance
	// order. The engine sizes its queue so each has a requeue slot.
	Quarantined() []*Job
	// Quarantine force-transitions a non-terminal job into quarantine with
	// the given diagnostic; false when the job was already terminal.
	Quarantine(j *Job, reason string, now time.Time) bool
	// Requeue revives a quarantined job: back to queued with a fresh
	// attempt budget. Fails when the job is not quarantined or when the
	// transition could not be made durable.
	Requeue(j *Job, now time.Time) error
	// SaveCheckpoint durably records the job's latest exploration
	// checkpoint; Checkpoint returns the stored frame (nil when none).
	// Both are no-ops once the job is terminal.
	SaveCheckpoint(j *Job, frame []byte) error
	Checkpoint(j *Job) []byte
	// Close releases store resources (fsyncs and closes the WAL). The
	// in-memory store's Close is a no-op.
	Close() error
}

// memStore is the idempotent in-memory job table. It outlives the worker
// pool: results stay fetchable after the drain so clients can collect
// the outcome of every accepted job.
type memStore struct {
	mu     sync.Mutex
	prefix string
	next   int
	jobs   map[string]*Job
	byKey  map[string]string // idempotency key -> job id
	byHash map[string]string // canonical content hash -> job id
}

func newMemStore(prefix string) *memStore {
	return &memStore{prefix: prefix, jobs: map[string]*Job{}, byKey: map[string]string{}, byHash: map[string]string{}}
}

// jobID formats the id for the n-th job of this store. The optional
// prefix (Config.NodeName) makes ids unique across replicas, which the
// shard proxy's scatter-on-miss lookup relies on.
func (s *memStore) jobID(n int) string {
	if s.prefix != "" {
		return fmt.Sprintf("%s-job-%d", s.prefix, n)
	}
	return fmt.Sprintf("job-%d", n)
}

// jobSeq parses the sequence number back out of an id minted by jobID
// (ok=false for foreign ids). The persistent store uses it to restore
// the id counter from a replayed log.
func (s *memStore) jobSeq(id string) (int, bool) {
	rest, found := strings.CutPrefix(id, "job-")
	if s.prefix != "" {
		rest, found = strings.CutPrefix(id, s.prefix+"-job-")
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

// Create registers a new queued job, or returns the existing job this
// submission dedupes onto: by idempotency key first, else — only for
// keyless submissions — by canonical content hash. A submission that
// carries a fresh explicit key is honored as a distinct run even when
// its content matches an existing job. Failed jobs never absorb new
// submissions: their hash registration is cleared so an equivalent
// resubmission gets a fresh attempt.
func (s *memStore) Create(spec JobSpec, now time.Time) (j *Job, dedupe DedupeKind, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if spec.IdemKey != "" {
		if id, ok := s.byKey[spec.IdemKey]; ok {
			return s.jobs[id], DedupeKey, nil
		}
	} else if spec.Hash != "" {
		if id, ok := s.byHash[spec.Hash]; ok {
			return s.jobs[id], DedupeContent, nil
		}
	}
	s.next++
	j = &Job{
		id:        s.jobID(s.next),
		idemKey:   spec.IdemKey,
		hash:      spec.Hash,
		state:     StateQueued,
		board:     spec.Doc.Board.Name,
		submitted: now,
		doc:       spec.Doc,
		opt:       spec.Opt,
		raw:       spec.Raw,
		explore:   spec.Explore,
		timeout:   spec.Timeout,
		trace:     spec.Trace,
	}
	s.insertLocked(j)
	return j, DedupeNone, nil
}

// insertLocked registers a job in the tables. Callers hold s.mu.
func (s *memStore) insertLocked(j *Job) {
	s.jobs[j.id] = j
	if j.idemKey != "" {
		s.byKey[j.idemKey] = j.id
	}
	if j.hash != "" {
		if _, taken := s.byHash[j.hash]; !taken {
			s.byHash[j.hash] = j.id
		}
	}
}

// Drop removes a job that was never accepted (queue full).
func (s *memStore) Drop(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.jobs, j.id)
	if j.idemKey != "" {
		delete(s.byKey, j.idemKey)
	}
	if j.hash != "" && s.byHash[j.hash] == j.id {
		delete(s.byHash, j.hash)
	}
}

// Get returns the job by id (nil when unknown).
func (s *memStore) Get(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// SetRunning transitions a queued job to running and hands the worker
// its payload. Returns ok=false when the job already reached a terminal
// state (e.g. failed by the drain sweep racing the worker), in which
// case the worker must not run it. The payload is read under the store
// lock so the worker never touches fields a finish may clear.
func (s *memStore) SetRunning(j *Job, tracer *obs.Tracer, now time.Time) (doc *boardio.Decoded, opt sprout.RouteOptions, explore, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.state.Terminal() {
		return nil, sprout.RouteOptions{}, false, false
	}
	j.state = StateRunning
	j.started = now
	j.attempts++
	j.tracer = tracer
	return j.doc, j.opt, j.explore, true
}

// NoteExploration records the sweep digest of an exploration job before
// it goes terminal, so the status surface can report the winning order.
func (s *memStore) NoteExploration(j *Job, ex *sprout.OrderExploration) {
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
func (s *memStore) Finish(j *Job, report *obs.RunReport, err error, now time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.finishLocked(j, report, err, now)
}

func (s *memStore) finishLocked(j *Job, report *obs.RunReport, err error, now time.Time) bool {
	if j.state.Terminal() {
		return false
	}
	j.finished = now
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
		j.kind = classify(err)
		// A failed job must not absorb equivalent resubmissions — clear
		// its content registration so the next one runs fresh.
		if j.hash != "" && s.byHash[j.hash] == j.id {
			delete(s.byHash, j.hash)
		}
	} else {
		j.state = StateDone
	}
	return true
}

// NonTerminal snapshots every job that has not reached a terminal state.
func (s *memStore) NonTerminal() []*Job {
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
func (s *memStore) Status(j *Job) Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statusLocked(j)
}

func (s *memStore) statusLocked(j *Job) Status {
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
func (s *memStore) Result(j *Job) (*obs.RunReport, *obs.Tracer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.report, j.tracer
}

// Recovered is empty for the in-memory store: nothing survives restart.
func (s *memStore) Recovered() []*Job { return nil }

// List snapshots every job in the given state (all when state is ""),
// in acceptance order — the sequence number embedded in the id, which
// persists across restarts of the durable store.
func (s *memStore) List(state JobState) []Status {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		if state == "" || j.state == state {
			jobs = append(jobs, j)
		}
	}
	sort.Slice(jobs, func(a, b int) bool {
		na, _ := s.jobSeq(jobs[a].id)
		nb, _ := s.jobSeq(jobs[b].id)
		return na < nb
	})
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = s.statusLocked(j)
	}
	s.mu.Unlock()
	return out
}

// Quarantined returns the quarantined jobs in acceptance order.
func (s *memStore) Quarantined() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*Job
	for _, j := range s.jobs {
		if j.state == StateQuarantined {
			out = append(out, j)
		}
	}
	sort.Slice(out, func(a, b int) bool {
		na, _ := s.jobSeq(out[a].id)
		nb, _ := s.jobSeq(out[b].id)
		return na < nb
	})
	return out
}

// Quarantine force-transitions a non-terminal job into quarantine. Like
// a failure, a quarantined job must not absorb equivalent resubmissions,
// but unlike a failure it keeps its document so a requeue can re-run it.
func (s *memStore) Quarantine(j *Job, reason string, now time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.quarantineLocked(j, reason, now)
}

func (s *memStore) quarantineLocked(j *Job, reason string, now time.Time) bool {
	if j.state.Terminal() {
		return false
	}
	j.state = StateQuarantined
	j.kind = KindPoisoned
	j.err = errors.New(reason)
	j.finished = now
	if j.hash != "" && s.byHash[j.hash] == j.id {
		delete(s.byHash, j.hash)
	}
	return true
}

// Requeue revives a quarantined job: back to queued with a cleared
// outcome and a fresh attempt budget. The stored checkpoint survives, so
// a requeued exploration job resumes instead of restarting.
func (s *memStore) Requeue(j *Job, now time.Time) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.requeueLocked(j, now)
}

func (s *memStore) requeueLocked(j *Job, now time.Time) error {
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

// SaveCheckpoint records the job's latest exploration checkpoint.
func (s *memStore) SaveCheckpoint(j *Job, frame []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.state.Terminal() {
		return nil
	}
	j.checkpoint = frame
	return nil
}

// Checkpoint returns the stored checkpoint frame (nil when none).
func (s *memStore) Checkpoint(j *Job) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.checkpoint
}

// Close is a no-op for the in-memory store.
func (s *memStore) Close() error { return nil }
