// Package server is sproutd's long-running routing service: a bounded
// worker pool with admission control in front of the sprout facade,
// per-job isolation (deadline-derived contexts, panic containment,
// per-job run reports and traces), an idempotent job store that is
// in-memory or crash-safe on disk, and chaos-tested graceful shutdown
// that drains in-flight work under a bounded deadline.
//
// The package deliberately splits the engine (this file: pool,
// admission, lifecycle) from the HTTP surface (http.go) so the
// robustness invariants — every accepted job reaches a terminal state,
// rejection is typed, shutdown is bounded — are testable without a
// socket.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"sprout"
	"sprout/internal/boardio"
	"sprout/internal/obs"
)

// Config tunes the engine. The zero value is usable: Normalize fills
// conservative defaults.
type Config struct {
	// Workers is the number of concurrent routing jobs (in-flight limit).
	Workers int
	// Store is the job table: nil keeps jobs in memory until the process
	// exits; OpenStore's result makes them survive a crash. The engine
	// re-enqueues the store's Recovered jobs on Start. Closing the store
	// after Shutdown is the creator's responsibility.
	Store *Store
	// NodeName prefixes job ids minted by the default in-memory store
	// (replica identity for sharded deployments; a store opened with
	// OpenStore takes its name from StoreOptions instead). It also labels
	// the Prometheus series as both replica and shard: every replica is
	// its own ring member, so its shard is its name.
	NodeName string
	// FleetTimeout bounds each per-peer request of the shard proxy's
	// scatter-gathers: a fleet-metrics scrape, a trace-parts gather, and
	// a status/result read of a job another replica holds, relay
	// included (default 2s).
	FleetTimeout time.Duration
	// QueueDepth bounds the admission queue; a submission that finds the
	// queue full is rejected with sprout.ErrOverloaded (HTTP 429).
	QueueDepth int
	// JobTimeout is the default per-job deadline; MaxJobTimeout caps a
	// client-requested one.
	JobTimeout    time.Duration
	MaxJobTimeout time.Duration
	// DrainTimeout bounds graceful shutdown: jobs still running when it
	// expires are cancelled with sprout.ErrShuttingDown.
	DrainTimeout time.Duration
	// RetryAfter is the backoff hint attached to 429/503 rejections.
	RetryAfter time.Duration
	// CheckpointEvery persists an exploration job's frontier to the store
	// after every N settled orders, so a crashed (or later requeued) job
	// resumes mid-sweep instead of restarting. 0 selects the default (8);
	// negative disables checkpointing.
	CheckpointEvery int
	// Tracer receives the server-wide counters and histograms backing
	// /metrics (optional; nil disables).
	Tracer *obs.Tracer
	// Log receives lifecycle events (optional).
	Log *slog.Logger
}

// Normalize fills defaults in place and returns the config.
func (c Config) Normalize() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 2 * time.Minute
	}
	if c.MaxJobTimeout <= 0 {
		c.MaxJobTimeout = 10 * time.Minute
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 15 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.FleetTimeout <= 0 {
		c.FleetTimeout = 2 * time.Second
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 8
	}
	if c.Log == nil {
		c.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// routeFunc runs one routing job. Tests substitute it to script worker
// behavior; production uses sprout.RouteBoardCtx.
type routeFunc func(ctx context.Context, dec *boardio.Decoded, opt sprout.RouteOptions) (*sprout.BoardResult, error)

func defaultRoute(ctx context.Context, dec *boardio.Decoded, opt sprout.RouteOptions) (*sprout.BoardResult, error) {
	return sprout.RouteBoardCtx(ctx, dec.Board, opt)
}

// exploreFunc runs one order-exploration job; production uses
// sprout.ExploreNetOrdersCtx.
type exploreFunc func(ctx context.Context, dec *boardio.Decoded, opt sprout.RouteOptions) (*sprout.OrderExploration, error)

func defaultExplore(ctx context.Context, dec *boardio.Decoded, opt sprout.RouteOptions) (*sprout.OrderExploration, error) {
	return sprout.ExploreNetOrdersCtx(ctx, dec.Board, opt)
}

// Engine is the routing service core. Create with New, start the pool
// with Start, stop with Shutdown.
type Engine struct {
	cfg     Config
	store   *Store
	route   routeFunc
	explore exploreFunc
	// recovered holds the store's accepted-but-unfinished jobs
	// until Start re-enqueues them.
	recovered []*Job

	queue    chan *Job
	draining chan struct{}
	drainOne sync.Once
	wg       sync.WaitGroup

	// runCtx parents every job context; stopRun cancels stragglers when
	// the drain deadline expires.
	runCtx  context.Context
	stopRun context.CancelFunc

	accepting atomic.Bool
	inFlight  atomic.Int64

	// partsMu guards the bounded store of foreign trace parts: span sets
	// recorded on other replicas (or on this replica's proxy layer) for
	// jobs this replica touched, keyed by job id and stitched on demand by
	// GET /v1/jobs/{id}/trace.
	partsMu   sync.Mutex
	parts     map[string][]obs.TracePart
	partsFIFO []string
}

// New builds an engine; call Start to spin up the workers.
func New(cfg Config) *Engine {
	cfg = cfg.Normalize()
	st := cfg.Store
	if st == nil {
		st = newStore(StoreOptions{Name: cfg.NodeName})
	}
	recovered := st.Recovered()
	ctx, cancel := context.WithCancel(context.Background())
	e := &Engine{
		cfg:       cfg,
		store:     st,
		route:     defaultRoute,
		explore:   defaultExplore,
		recovered: recovered,
		// The queue must absorb every recovered job on top of the normal
		// admission depth, or a crash with a deep backlog would deadlock
		// its own restart. Quarantined jobs get headroom too, so an
		// operator requeueing the whole quarantine never hits a full queue
		// that recovery itself created.
		queue:    make(chan *Job, cfg.QueueDepth+len(recovered)+len(st.Quarantined())),
		draining: make(chan struct{}),
		runCtx:   ctx,
		stopRun:  cancel,
		parts:    map[string][]obs.TracePart{},
	}
	e.accepting.Store(true)
	return e
}

// Start re-enqueues jobs the store recovered (in their original
// acceptance order, ahead of any new admission), then launches the
// worker pool.
func (e *Engine) Start() {
	for _, j := range e.recovered {
		e.queue <- j
		e.count(obs.MJobsRecovered, 1)
	}
	if n := len(e.recovered); n > 0 {
		e.cfg.Log.Info("re-enqueued recovered jobs", "jobs", n)
	}
	e.recovered = nil
	for i := 0; i < e.cfg.Workers; i++ {
		e.wg.Add(1)
		go e.worker()
	}
	e.cfg.Log.Info("engine started", "workers", e.cfg.Workers, "queue", e.cfg.QueueDepth)
}

// Accepting reports whether admission is open (false once shutdown
// starts) — the /readyz signal.
func (e *Engine) Accepting() bool { return e.accepting.Load() }

// QueueLen and InFlight are the /metrics gauges.
func (e *Engine) QueueLen() int   { return len(e.queue) }
func (e *Engine) InFlight() int64 { return e.inFlight.Load() }

// SubmitOptions carries the per-submission knobs.
type SubmitOptions struct {
	// IdempotencyKey dedupes retried submissions: a key already seen
	// returns the existing job instead of enqueueing a duplicate.
	IdempotencyKey string
	// Timeout overrides the default per-job deadline (capped at
	// Config.MaxJobTimeout; 0 = default).
	Timeout time.Duration
	// WithManual and SkipExtract mirror sprout.RouteOptions.
	WithManual  bool
	SkipExtract bool
	// Explore runs net-order exploration instead of a single-order route:
	// the job's report is the winning order's, and the status carries the
	// best order plus tried/failed counts.
	Explore bool
	// ExploreWorkers mirrors sprout.RouteOptions.ExploreWorkers, the
	// explorer's pool bound.
	ExploreWorkers int
	// Trace continues the submitter's distributed trace: the job tracer
	// adopts its trace id and parents its root span under the propagated
	// span ref. The zero value starts a fresh trace.
	Trace obs.TraceContext
}

// canonicalSubmission derives the content identity of a submission: the
// canonical document bytes (persisted by the durable store) and their
// hash salted with the option flags that change what gets computed.
// Submissions differing only in JSON formatting — or in knobs that do
// not affect the result, like timeout or explorer parallelism — share a
// hash and singleflight onto one job. A document-less Decoded (built
// directly from a Board in tests) yields "" and opts out of dedupe.
func canonicalSubmission(dec *boardio.Decoded, opt SubmitOptions) (raw []byte, hash string) {
	if dec.Doc == nil {
		return nil, ""
	}
	b, err := dec.Doc.Canonical()
	if err != nil {
		return nil, ""
	}
	h := sha256.New()
	h.Write(b)
	fmt.Fprintf(h, "|explore=%t|manual=%t|skip_extract=%t", opt.Explore, opt.WithManual, opt.SkipExtract)
	return b, hex.EncodeToString(h.Sum(nil))
}

// Submit runs admission control over a decoded board document. It
// returns the job's status snapshot, or a typed rejection:
// sprout.ErrShuttingDown when draining, sprout.ErrOverloaded when the
// queue is full. Accepted jobs are guaranteed to reach a terminal state.
//
// Submissions dedupe two ways: an Idempotency-Key seen before returns
// the original job, and a keyless submission whose canonical content
// hash matches a live job singleflights onto it — one computation, every
// submitter polls the same result.
func (e *Engine) Submit(dec *boardio.Decoded, opt SubmitOptions) (Status, error) {
	if !e.accepting.Load() {
		e.count(obs.MJobsRejectedShutdown, 1)
		return Status{}, sprout.ErrShuttingDown
	}
	timeout := opt.Timeout
	if timeout <= 0 {
		timeout = e.cfg.JobTimeout
	}
	if timeout > e.cfg.MaxJobTimeout {
		timeout = e.cfg.MaxJobTimeout
	}
	raw, hash := canonicalSubmission(dec, opt)
	spec := JobSpec{
		IdemKey: opt.IdempotencyKey,
		Hash:    hash,
		Raw:     raw,
		Doc:     dec,
		Opt:     routeOptions(dec, opt),
		Timeout: timeout,
		Explore: opt.Explore,
		Trace:   opt.Trace,
	}
	job, dedupe, err := e.store.Create(spec, time.Now())
	if err != nil {
		e.count(obs.MJobsRejectedStore, 1)
		return Status{}, fmt.Errorf("server: submission not durable: %w", err)
	}
	if dedupe != DedupeNone {
		e.count(obs.MJobsDeduped, 1)
		if dedupe == DedupeContent {
			e.count(obs.MDedupeHits, 1)
		}
		st := e.store.Status(job)
		st.Deduped = true
		return st, nil
	}
	select {
	case e.queue <- job:
		e.count(obs.MJobsAccepted, 1)
		return e.store.Status(job), nil
	default:
		e.store.Drop(job)
		e.count(obs.MJobsRejectedOverloaded, 1)
		return Status{}, sprout.ErrOverloaded
	}
}

// Job returns the status snapshot for a job id (ok=false when unknown).
func (e *Engine) Job(id string) (Status, bool) {
	j := e.store.Get(id)
	if j == nil {
		return Status{}, false
	}
	return e.store.Status(j), true
}

// Result returns a terminal job's run report and tracer. The bool is
// false when the job is unknown.
func (e *Engine) Result(id string) (Status, *obs.RunReport, *obs.Tracer, bool) {
	j := e.store.Get(id)
	if j == nil {
		return Status{}, nil, nil, false
	}
	rep, tr := e.store.Result(j)
	return e.store.Status(j), rep, tr, true
}

// List returns status snapshots of every job in the given state, in
// acceptance order ("" = all jobs) — the GET /v1/jobs surface.
func (e *Engine) List(state JobState) []Status {
	return e.store.List(state)
}

// Requeue revives a quarantined job: its attempt budget resets, its
// diagnostics clear, and it re-enters the admission queue — keeping any
// exploration checkpoint, so the revived job resumes mid-sweep. The bool
// is false when the job is unknown. Typed rejections: ErrNotQuarantined
// for jobs in any other state (409), sprout.ErrShuttingDown while
// draining, sprout.ErrOverloaded when the queue is full (the job is
// re-quarantined rather than lost).
func (e *Engine) Requeue(id string) (Status, bool, error) {
	if !e.accepting.Load() {
		return Status{}, true, sprout.ErrShuttingDown
	}
	j := e.store.Get(id)
	if j == nil {
		return Status{}, false, nil
	}
	if err := e.store.Requeue(j, time.Now()); err != nil {
		return Status{}, true, err
	}
	// Snapshot before the send: once the job is on the queue a worker can
	// finish it before this goroutine reads its state again.
	st := e.store.Status(j)
	select {
	case e.queue <- j:
		e.count(obs.MJobsRequeued, 1)
		e.cfg.Log.Info("job requeued from quarantine", "job", j.id, "board", j.board)
		return st, true, nil
	default:
		// No queue slot: park the job back in quarantine so it stays
		// revivable instead of sitting queued-but-unreachable.
		e.store.Quarantine(j, "server: requeue rejected, admission queue full", time.Now())
		e.count(obs.MJobsRejectedOverloaded, 1)
		return Status{}, true, sprout.ErrOverloaded
	}
}

// worker pulls jobs until shutdown; once draining begins it keeps
// pulling until the queue is empty, then exits.
func (e *Engine) worker() {
	defer e.wg.Done()
	for {
		select {
		case j := <-e.queue:
			e.runJob(j)
		case <-e.draining:
			// Drain mode: finish whatever is still queued, never block.
			for {
				select {
				case j := <-e.queue:
					e.runJob(j)
				default:
					return
				}
			}
		}
	}
}

// runJob executes one job under full isolation: its own deadline-derived
// context, its own tracer (so the run report and Chrome trace are
// per-job), and panic containment — a poisoned board marks its own job
// failed and leaves the process serving.
func (e *Engine) runJob(j *Job) {
	topts := []obs.Option{obs.WithReplica(e.cfg.NodeName)}
	if j.trace.Valid() {
		// The submitter propagated an X-Sprout-Trace: adopt its trace id
		// and hang this job's root span under the propagated span ref, so
		// stitching reconstructs the cross-replica timeline.
		topts = append(topts, obs.WithTraceID(j.trace.TraceID), obs.WithRemoteParent(j.trace.Parent))
	}
	tracer := obs.New(topts...)
	doc, opt, explore, ok := e.store.SetRunning(j, tracer, time.Now())
	if !ok {
		return // already failed by the drain sweep
	}
	queueWait := time.Since(j.submitted)
	e.inFlight.Add(1)
	defer e.inFlight.Add(-1)

	ctx, cancel := context.WithTimeout(e.runCtx, j.timeout)
	defer cancel()
	ctx = obs.WithTracer(ctx, tracer)
	ctx, jobSpan := obs.StartSpan(ctx, "Job",
		obs.A("job", j.id), obs.A("replica", e.cfg.NodeName), obs.A("board", j.board))

	start := time.Now()
	var report *obs.RunReport
	var err error
	if explore {
		var ex *sprout.OrderExploration
		ex, err = e.exploreContained(ctx, doc, e.wireCheckpoints(j, opt))
		if ex != nil {
			e.store.NoteExploration(j, ex)
			e.count(obs.MServerExploreOrders, int64(ex.Stats.Orders))
			e.count(obs.MServerExploreHits, ex.Stats.PrefixHits)
			e.count(obs.MServerExploreMisses, ex.Stats.PrefixMisses)
			if ex.Best != nil {
				report = ex.Best.Report
			}
		}
	} else {
		var res *sprout.BoardResult
		res, err = e.routeContained(ctx, doc, opt)
		if res != nil {
			report = res.Report
		}
	}
	dur := time.Since(start)

	if err != nil && errors.Is(err, context.Canceled) && e.runCtx.Err() != nil {
		// The server, not the client, cancelled this job: it is a drain
		// straggler, and its terminal error says so.
		err = fmt.Errorf("%w: %w", sprout.ErrShuttingDown, err)
	}
	jobSpan.Fail(err)
	jobSpan.End()
	// Fold the job tracer's stage/solver metrics into the replica tracer,
	// so /metrics exposes per-stage latency quantiles across all jobs.
	e.cfg.Tracer.AbsorbMetrics(tracer)
	// The finish that wins records the job's metrics before its terminal
	// state is visible, so a scrape that follows a terminal status always
	// counts the job.
	record := func(attempts int) {
		e.observe(obs.MJobQueueWaitMS, float64(queueWait.Nanoseconds())/1e6)
		e.observe(obs.MJobRunMS, float64(dur.Nanoseconds())/1e6)
		e.observe(obs.MJobAttempts, float64(attempts))
		if err != nil {
			e.count(obs.MJobsFailed, 1)
			e.count(obs.MJobsFailedPrefix+string(classify(err)), 1)
		} else {
			e.count(obs.MJobsDone, 1)
		}
	}
	if !e.store.Finish(j, report, err, time.Now(), record) {
		return
	}
	if err != nil {
		e.cfg.Log.Warn("job failed", "job", j.id, "board", j.board, "kind", classify(err), "err", err)
	} else {
		e.cfg.Log.Info("job done", "job", j.id, "board", j.board, "run_ms", dur.Milliseconds())
	}
}

// wireCheckpoints arms an exploration job's options with durable
// checkpointing: any stored frame from a previous attempt is decoded into
// ExploreResume (a frame that fails to decode is dropped and the sweep
// restarts — a checkpoint is an optimization, never a correctness
// dependency), and the sink persists each new frame through the store's
// WAL so the next attempt finds it.
func (e *Engine) wireCheckpoints(j *Job, opt sprout.RouteOptions) sprout.RouteOptions {
	if frame := e.store.Checkpoint(j); len(frame) > 0 {
		ck, err := sprout.DecodeCheckpoint(frame)
		if err != nil {
			e.count(obs.MCkptDecodeFailures, 1)
			e.cfg.Log.Warn("stored checkpoint rejected, exploring from scratch", "job", j.id, "err", err)
		} else {
			opt.ExploreResume = ck
			e.count(obs.MCkptResumes, 1)
			e.cfg.Log.Info("resuming exploration from checkpoint",
				"job", j.id, "done", ck.Done, "orders", ck.Orders)
		}
	}
	if e.cfg.CheckpointEvery > 0 {
		opt.ExploreCheckpointEvery = e.cfg.CheckpointEvery
		opt.ExploreCheckpointSink = func(ck *sprout.ExploreCheckpoint) error {
			frame, err := sprout.EncodeCheckpoint(ck)
			if err != nil {
				return err
			}
			return e.store.SaveCheckpoint(j, frame)
		}
	}
	return opt
}

// routeContained invokes the route function with panic containment. The
// sprout facade already converts its own panics; this second barrier
// covers everything else on the job path (decode helpers, report
// assembly, test-injected routes), so no job can crash the pool.
func (e *Engine) routeContained(ctx context.Context, doc *boardio.Decoded, opt sprout.RouteOptions) (res *sprout.BoardResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			e.count(obs.MJobsPanics, 1)
			err = &sprout.PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return e.route(ctx, doc, opt)
}

// exploreContained is routeContained for exploration jobs: same panic
// barrier, different payload.
func (e *Engine) exploreContained(ctx context.Context, doc *boardio.Decoded, opt sprout.RouteOptions) (ex *sprout.OrderExploration, err error) {
	defer func() {
		if r := recover(); r != nil {
			e.count(obs.MJobsPanics, 1)
			err = &sprout.PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return e.explore(ctx, doc, opt)
}

// Shutdown drains the engine: admission closes immediately (readyz goes
// unready), queued and running jobs are given until ctx expires to
// finish, and stragglers past the deadline are cancelled with
// sprout.ErrShuttingDown. On return every accepted job is terminal; the
// store keeps serving results. The returned error is non-nil only when
// the drain deadline expired and stragglers had to be cancelled.
func (e *Engine) Shutdown(ctx context.Context) error {
	e.accepting.Store(false)
	e.drainOne.Do(func() { close(e.draining) })
	e.cfg.Log.Info("draining", "queued", e.QueueLen(), "in_flight", e.InFlight())

	done := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		// Drain deadline expired: cancel every in-flight job context. The
		// pipeline honors cancellation within one iteration (PR 1), so the
		// pool unwinds promptly.
		e.stopRun()
		<-done
		err = fmt.Errorf("server: drain deadline expired, cancelled stragglers: %w", ctx.Err())
	}
	e.stopRun()
	// Sweep: any job still non-terminal (accepted after the workers
	// checked the queue, or orphaned in the channel) fails typed rather
	// than vanishing. This is the zero-loss guarantee.
	for _, j := range e.store.NonTerminal() {
		e.store.Finish(j, nil, sprout.ErrShuttingDown, time.Now(), func(int) {
			e.count(obs.MJobsFailed, 1)
			e.count(obs.MJobsFailedPrefix+string(KindShutdown), 1)
		})
	}
	e.cfg.Log.Info("drained", "err", err)
	return err
}

// maxTracePartJobs bounds how many jobs' foreign trace parts a replica
// retains for stitching; the oldest job's parts go first.
const maxTracePartJobs = 512

// AddTracePart records a trace part captured outside this job's own
// tracer — on another replica, or by this replica's proxy layer — so
// GET /v1/jobs/{id}/trace can stitch the cross-replica timeline.
func (e *Engine) AddTracePart(jobID string, part obs.TracePart) {
	if jobID == "" || (len(part.Spans) == 0 && len(part.Events) == 0) {
		return
	}
	var evicted int
	e.partsMu.Lock()
	if _, ok := e.parts[jobID]; !ok {
		e.partsFIFO = append(e.partsFIFO, jobID)
	}
	e.parts[jobID] = append(e.parts[jobID], part)
	for len(e.partsFIFO) > maxTracePartJobs {
		old := e.partsFIFO[0]
		e.partsFIFO = e.partsFIFO[1:]
		evicted += len(e.parts[old])
		delete(e.parts, old)
	}
	e.partsMu.Unlock()
	e.count(obs.MTracePartsStored, 1)
	if evicted > 0 {
		e.count(obs.MTracePartsEvicted, int64(evicted))
	}
}

// TraceParts returns every part known locally for a job: the job's own
// tracer part (when it ran here) plus foreign parts recorded by the
// proxy layer. Empty when the job is unknown and nothing was recorded.
func (e *Engine) TraceParts(id string) []obs.TracePart {
	var parts []obs.TracePart
	if j := e.store.Get(id); j != nil {
		if _, tr := e.store.Result(j); tr != nil {
			if p := tr.TracePart(); len(p.Spans) > 0 || len(p.Events) > 0 {
				parts = append(parts, p)
			}
		}
	}
	e.partsMu.Lock()
	parts = append(parts, e.parts[id]...)
	e.partsMu.Unlock()
	return parts
}

// syncGauges publishes the engine's live state into the tracer's gauge
// table so a scrape reads current values, not the last job's.
func (e *Engine) syncGauges() {
	t := e.cfg.Tracer
	if !t.Enabled() {
		return
	}
	var acc int64
	if e.accepting.Load() {
		acc = 1
	}
	t.Gauge(obs.MServerAccepting).Set(acc)
	t.Gauge(obs.MServerQueueLen).Set(int64(e.QueueLen()))
	t.Gauge(obs.MServerQueueCap).Set(int64(e.cfg.QueueDepth))
	t.Gauge(obs.MServerInFlight).Set(e.InFlight())
	t.Gauge(obs.MServerWorkers).Set(int64(e.cfg.Workers))
}

func (e *Engine) count(name string, n int64) {
	e.cfg.Tracer.Counter(name).Add(n)
}

func (e *Engine) observe(name string, v float64) {
	e.cfg.Tracer.Histogram(name).Observe(v)
}
