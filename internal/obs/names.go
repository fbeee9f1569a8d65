package obs

import (
	"fmt"
	"sort"
	"strings"
)

// This file is the canonical metric registry, mirroring the faultinject
// site registry: every counter, gauge and histogram name used anywhere in
// the tree is declared here as a constant and registered with its kind,
// help text and (for histograms) bucket bounds. Tracer.Counter/Gauge/
// Histogram panic on an unregistered name — exactly like faultinject.Arm
// on an unregistered site — and TestMetricNameLiteralsRegistered rejects
// stray string literals at lint time, so metric names cannot drift apart
// across the server, explorer and WAL again.
//
// Families with a dynamic tail (per-rung solver counters, per-failure-kind
// job counters) register a "prefix.*" wildcard. Per-series dimensions that
// Prometheus should see as labels (HTTP route/status) are appended with
// WithLabels, which the registry strips before matching.

// MetricKind distinguishes the three metric families.
type MetricKind int

const (
	KindCounter MetricKind = iota
	KindGauge
	KindHistogram
)

func (k MetricKind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("MetricKind(%d)", int(k))
	}
}

// Canonical metric names. Keep the strings identical to what earlier PRs
// emitted — dashboards and tests key off them.
const (
	// Solver telemetry (PR 3).
	MSolverSolves           = "solver.solves"
	MSolverIterations       = "solver.iterations"
	MSolverEscalations      = "solver.escalations"
	MSolverFailures         = "solver.failures"
	MSolverPrecondPrefix    = "solver.precond." // + preconditioner name
	MSolverRungPrefix       = "solver.rung."    // + ladder rung name
	MSolverCGIterations     = "solver.cg_iterations"
	MSolverResidualNegLog10 = "solver.residual_neglog10"
	MLaplacianNNZ           = "laplacian.nnz"

	// Solver session: the per-pipeline solver cache whose arenas for the
	// induced subgraph, Laplacian, and preconditioner are rebuilt in place
	// for every evaluated mask. solver.cache.hits stays registered for
	// readers of older traces and always reads 0.
	MSolverCacheHits          = "solver.cache.hits"
	MSolverCacheRebuilds      = "solver.cache.rebuilds"
	MSolverCacheInvalidations = "solver.cache.invalidations"

	// Pipeline stage latency (PR 8): one histogram per paper stage,
	// observed in milliseconds when the stage span closes. MStageSolve is
	// the nodal-analysis slice observed around each linear-system solve.
	MStagePrefix = "stage." // + lowercased stage span name
	MStageSolve  = "stage.solve"

	// Explorer (PR 5).
	MExploreOrders       = "explore.orders"
	MExploreWorkers      = "explore.workers"
	MExplorePrefixHits   = "explore.prefix.hits"
	MExplorePrefixMisses = "explore.prefix.misses"
	MExploreNodeMS       = "explore.node_ms"

	// sproutd engine (PR 4/5/6).
	MJobsAccepted           = "server.jobs.accepted"
	MJobsDeduped            = "server.jobs.deduped"
	MJobsDone               = "server.jobs.done"
	MJobsFailed             = "server.jobs.failed"
	MJobsFailedPrefix       = "server.jobs.failed_" // + ErrKind
	MJobsPanics             = "server.jobs.panics"
	MJobsRecovered          = "server.jobs.recovered"
	MJobsRejectedOverloaded = "server.jobs.rejected_overloaded"
	MJobsRejectedShutdown   = "server.jobs.rejected_shutdown"
	MJobsRejectedStore      = "server.jobs.rejected_store"
	MServerExploreOrders    = "server.explore.orders"
	MServerExploreHits      = "server.explore.prefix_hits"
	MServerExploreMisses    = "server.explore.prefix_misses"
	MJobQueueWaitMS         = "server.job.queue_wait_ms"
	MJobRunMS               = "server.job.run_ms"
	MDedupeHits             = "dedupe.hits"

	// Engine gauges surfaced at scrape time (PR 8).
	MServerAccepting = "server.accepting"
	MServerQueueLen  = "server.queue_len"
	MServerQueueCap  = "server.queue_cap"
	MServerInFlight  = "server.in_flight"
	MServerWorkers   = "server.workers"

	// Durable store (PR 6) plus PR 8 latency histograms.
	MWALAppends       = "wal.appends"
	MWALCompactions   = "wal.compactions"
	MWALRecoveredJobs = "wal.recovered_jobs"
	MWALTruncatedTail = "wal.truncated_tail"
	MWALAppendMS      = "wal.append_ms"
	MWALCompactMS     = "wal.compact_ms"
	MWALRecoverMS     = "wal.recover_ms"

	// Shard routing (PR 6) and fleet aggregation (PR 8).
	MShardFailovers    = "shard.failovers"
	MFleetPeerErrors   = "fleet.peer_errors"
	MFleetScrapeMS     = "fleet.scrape_ms"
	MTracePartsStored  = "trace.parts.stored"
	MTracePartsEvicted = "trace.parts.evicted"

	// HTTP surface (PR 8): request latency by route/status via WithLabels.
	MHTTPRequestMS = "http.request_ms"

	// Client-side retry telemetry (PR 8).
	MClientSubmitAttempts   = "client.submit.attempts"
	MClientSubmitBackoffMS  = "client.submit.backoff_ms"
	MClientRetryAfterUsed   = "client.submit.retry_after_honored"
	MClientTransportRetries = "client.submit.transport_retries"

	// Self-healing execution (PR 9): attempt budgets, poison quarantine
	// and durable exploration checkpoints.
	MJobsQuarantined     = "server.jobs.quarantined"
	MJobsRequeued        = "server.jobs.requeued"
	MJobAttempts         = "server.job.attempts"
	MCkptResumes         = "server.ckpt.resumes"
	MCkptDecodeFailures  = "server.ckpt.decode_failures"
	MWALCkptWrites       = "wal.checkpoint.writes"
	MWALCkptWriteErrors  = "wal.checkpoint.write_errors"
	MExploreCkptSaved    = "explore.ckpt.saved"
	MExploreCkptSinkErrs = "explore.ckpt.sink_errors"
	MExploreCkptOrders   = "explore.ckpt.resumed_orders"
	MExploreCkptRejected = "explore.ckpt.rejected"
)

// countBuckets are the original power-of-four bounds: they cover CG
// iteration counts, Laplacian nnz and other size-like distributions.
var countBuckets = []float64{1, 4, 16, 64, 256, 1024, 4096, 16384}

// latencyBucketsMS are the bounds for every *_ms histogram: sub-10µs WAL
// appends through multi-minute routing jobs.
var latencyBucketsMS = []float64{0.01, 0.05, 0.1, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 60000}

// attemptBuckets bound small try-count distributions (client retries).
var attemptBuckets = []float64{1, 2, 3, 4, 6, 8, 12, 16}

// MetricDef describes one registered metric (or a "prefix.*" family).
type MetricDef struct {
	// Name is the canonical name, or a wildcard ending in "*" matching any
	// name with that prefix.
	Name string
	Kind MetricKind
	// Help is the Prometheus HELP text.
	Help string
	// Buckets are the histogram bucket upper bounds (nil on counters and
	// gauges; nil on a histogram selects countBuckets).
	Buckets []float64
}

var metricRegistry = map[string]MetricDef{}

func register(defs ...MetricDef) {
	for _, d := range defs {
		if _, dup := metricRegistry[d.Name]; dup {
			panic("obs: duplicate metric registration: " + d.Name)
		}
		metricRegistry[d.Name] = d
	}
}

func init() {
	register(
		MetricDef{Name: MSolverSolves, Kind: KindCounter, Help: "Linear solves attempted by the fallback ladder."},
		MetricDef{Name: MSolverIterations, Kind: KindCounter, Help: "Total CG iterations across all solves."},
		MetricDef{Name: MSolverEscalations, Kind: KindCounter, Help: "Solver-ladder escalations past a failed rung."},
		MetricDef{Name: MSolverFailures, Kind: KindCounter, Help: "Solves that exhausted every ladder rung."},
		MetricDef{Name: MSolverPrecondPrefix + "*", Kind: KindCounter, Help: "Solves per active preconditioner."},
		MetricDef{Name: MSolverRungPrefix + "*", Kind: KindCounter, Help: "Solves won per ladder rung."},
		MetricDef{Name: MSolverCGIterations, Kind: KindHistogram, Help: "CG iterations per solve attempt.", Buckets: countBuckets},
		MetricDef{Name: MSolverResidualNegLog10, Kind: KindHistogram, Help: "Accepted-solve relative residual as -log10.", Buckets: countBuckets},
		MetricDef{Name: MLaplacianNNZ, Kind: KindHistogram, Help: "Nonzeros of each solved Laplacian.", Buckets: countBuckets},
		MetricDef{Name: MSolverCacheHits, Kind: KindCounter, Help: "Always 0: the pipeline scores each member mask once, so no nodal analysis reuses the previous mask's structures."},
		MetricDef{Name: MSolverCacheRebuilds, Kind: KindCounter, Help: "Nodal analyses through a caller's solve cache: each evaluation rebuilds the solver session's structures into its retained arenas."},
		MetricDef{Name: MSolverCacheInvalidations, Kind: KindCounter, Help: "Warm-start vectors dropped after a rung-1 stall; the solve fell back to a cold rebuild."},

		MetricDef{Name: MStagePrefix + "*", Kind: KindHistogram, Help: "Pipeline stage latency in milliseconds.", Buckets: latencyBucketsMS},

		MetricDef{Name: MExploreOrders, Kind: KindCounter, Help: "Net orders enumerated by the explorer."},
		MetricDef{Name: MExploreWorkers, Kind: KindGauge, Help: "Explorer worker-pool size."},
		MetricDef{Name: MExplorePrefixHits, Kind: KindCounter, Help: "Explorer prefix-cache hits (memoized rail routes)."},
		MetricDef{Name: MExplorePrefixMisses, Kind: KindCounter, Help: "Explorer prefix-cache misses (actual rail routes)."},
		MetricDef{Name: MExploreNodeMS, Kind: KindHistogram, Help: "Explorer permutation-tree node latency in milliseconds.", Buckets: latencyBucketsMS},

		MetricDef{Name: MJobsAccepted, Kind: KindCounter, Help: "Jobs accepted by admission control."},
		MetricDef{Name: MJobsDeduped, Kind: KindCounter, Help: "Submissions answered from an existing job."},
		MetricDef{Name: MJobsDone, Kind: KindCounter, Help: "Jobs finished successfully."},
		MetricDef{Name: MJobsFailed, Kind: KindCounter, Help: "Jobs finished with a typed error."},
		MetricDef{Name: MJobsFailedPrefix + "*", Kind: KindCounter, Help: "Failed jobs by error kind."},
		MetricDef{Name: MJobsPanics, Kind: KindCounter, Help: "Contained job panics."},
		MetricDef{Name: MJobsRecovered, Kind: KindCounter, Help: "Jobs re-enqueued from the durable store at startup."},
		MetricDef{Name: MJobsRejectedOverloaded, Kind: KindCounter, Help: "Submissions rejected with 429 (queue full)."},
		MetricDef{Name: MJobsRejectedShutdown, Kind: KindCounter, Help: "Submissions rejected with 503 (draining)."},
		MetricDef{Name: MJobsRejectedStore, Kind: KindCounter, Help: "Submissions rejected because the store could not make them durable."},
		MetricDef{Name: MServerExploreOrders, Kind: KindCounter, Help: "Orders evaluated across exploration jobs."},
		MetricDef{Name: MServerExploreHits, Kind: KindCounter, Help: "Explorer prefix-cache hits across jobs."},
		MetricDef{Name: MServerExploreMisses, Kind: KindCounter, Help: "Explorer prefix-cache misses across jobs."},
		MetricDef{Name: MJobQueueWaitMS, Kind: KindHistogram, Help: "Queue wait per job in milliseconds.", Buckets: latencyBucketsMS},
		MetricDef{Name: MJobRunMS, Kind: KindHistogram, Help: "Run time per job in milliseconds.", Buckets: latencyBucketsMS},
		MetricDef{Name: MDedupeHits, Kind: KindCounter, Help: "Keyless submissions singleflighted onto a live job by content hash."},

		MetricDef{Name: MServerAccepting, Kind: KindGauge, Help: "1 while admission is open, 0 while draining."},
		MetricDef{Name: MServerQueueLen, Kind: KindGauge, Help: "Jobs waiting in the admission queue."},
		MetricDef{Name: MServerQueueCap, Kind: KindGauge, Help: "Admission queue capacity."},
		MetricDef{Name: MServerInFlight, Kind: KindGauge, Help: "Jobs currently routing."},
		MetricDef{Name: MServerWorkers, Kind: KindGauge, Help: "Worker-pool size."},

		MetricDef{Name: MWALAppends, Kind: KindCounter, Help: "WAL records appended."},
		MetricDef{Name: MWALCompactions, Kind: KindCounter, Help: "Snapshot+compaction passes."},
		MetricDef{Name: MWALRecoveredJobs, Kind: KindCounter, Help: "Accepted-but-unfinished jobs re-enqueued by recovery."},
		MetricDef{Name: MWALTruncatedTail, Kind: KindCounter, Help: "Torn or corrupt WAL tails truncated during recovery."},
		MetricDef{Name: MWALAppendMS, Kind: KindHistogram, Help: "WAL append (incl. fsync when enabled) latency in milliseconds.", Buckets: latencyBucketsMS},
		MetricDef{Name: MWALCompactMS, Kind: KindHistogram, Help: "Snapshot+compaction latency in milliseconds.", Buckets: latencyBucketsMS},
		MetricDef{Name: MWALRecoverMS, Kind: KindHistogram, Help: "Startup recovery latency in milliseconds.", Buckets: latencyBucketsMS},

		MetricDef{Name: MShardFailovers, Kind: KindCounter, Help: "Submissions that failed over past the ring owner."},
		MetricDef{Name: MFleetPeerErrors, Kind: KindCounter, Help: "Fleet-metrics scrapes that found a peer unreachable."},
		MetricDef{Name: MFleetScrapeMS, Kind: KindHistogram, Help: "Per-peer fleet-metrics scrape latency in milliseconds.", Buckets: latencyBucketsMS},
		MetricDef{Name: MTracePartsStored, Kind: KindCounter, Help: "Foreign trace parts recorded for stitching."},
		MetricDef{Name: MTracePartsEvicted, Kind: KindCounter, Help: "Foreign trace parts evicted by the bounded part store."},

		MetricDef{Name: MHTTPRequestMS, Kind: KindHistogram, Help: "HTTP handler latency in milliseconds by route and status.", Buckets: latencyBucketsMS},

		MetricDef{Name: MClientSubmitAttempts, Kind: KindHistogram, Help: "Submit attempts used per client submission.", Buckets: attemptBuckets},
		MetricDef{Name: MClientSubmitBackoffMS, Kind: KindHistogram, Help: "Client backoff sleeps in milliseconds.", Buckets: latencyBucketsMS},
		MetricDef{Name: MClientRetryAfterUsed, Kind: KindCounter, Help: "Backoff sleeps that honored a server Retry-After hint."},
		MetricDef{Name: MClientTransportRetries, Kind: KindCounter, Help: "Submit attempts retried after a transport-level failure."},

		MetricDef{Name: MJobsQuarantined, Kind: KindCounter, Help: "Jobs quarantined after exhausting their attempt budget."},
		MetricDef{Name: MJobsRequeued, Kind: KindCounter, Help: "Quarantined jobs revived by an operator requeue."},
		MetricDef{Name: MJobAttempts, Kind: KindHistogram, Help: "Start attempts used per finished job.", Buckets: attemptBuckets},
		MetricDef{Name: MCkptResumes, Kind: KindCounter, Help: "Jobs resumed from a durable exploration checkpoint."},
		MetricDef{Name: MCkptDecodeFailures, Kind: KindCounter, Help: "Stored exploration checkpoints that failed to decode (job restarted from scratch)."},
		MetricDef{Name: MWALCkptWrites, Kind: KindCounter, Help: "Exploration checkpoints persisted to the WAL."},
		MetricDef{Name: MWALCkptWriteErrors, Kind: KindCounter, Help: "Exploration-checkpoint persists that failed (sweep continues unchecked)."},
		MetricDef{Name: MExploreCkptSaved, Kind: KindCounter, Help: "Checkpoints emitted by the explorer's reducer."},
		MetricDef{Name: MExploreCkptSinkErrs, Kind: KindCounter, Help: "Checkpoint sink invocations that returned an error (non-fatal)."},
		MetricDef{Name: MExploreCkptOrders, Kind: KindCounter, Help: "Net orders skipped by resuming from a checkpoint."},
		MetricDef{Name: MExploreCkptRejected, Kind: KindCounter, Help: "Resume checkpoints rejected as stale or inconsistent."},
	)
}

// WithLabels appends a deterministic label suffix to a registered metric
// name: WithLabels("http.request_ms", "route", "submit", "status", "202")
// yields `http.request_ms{route=submit,status=202}`. The Prometheus
// encoder splits the suffix back into real labels; the JSON surface keeps
// the combined string as the map key. Keys are sorted so the same label
// set always produces the same series name. Panics on an odd kv count —
// a call-site bug, like an unregistered name.
func WithLabels(base string, kv ...string) string {
	if len(kv) == 0 {
		return base
	}
	if len(kv)%2 != 0 {
		panic("obs: WithLabels: odd key/value count for " + base)
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteByte('=')
		b.WriteString(p.v)
	}
	b.WriteByte('}')
	return b.String()
}

// splitName separates a metric name from its WithLabels suffix. Labels
// come back as alternating key/value pairs, already in sorted-key order.
func splitName(name string) (base string, labels []string) {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return name, nil
	}
	base = name[:i]
	for _, kv := range strings.Split(name[i+1:len(name)-1], ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			continue
		}
		labels = append(labels, k, v)
	}
	return base, labels
}

// lookupMetric resolves a (possibly labeled, possibly wildcard-matched)
// name to its registration.
func lookupMetric(name string) (MetricDef, bool) {
	base, _ := splitName(name)
	if d, ok := metricRegistry[base]; ok {
		return d, ok
	}
	// Wildcard families: longest matching "prefix.*" wins.
	best := MetricDef{}
	found := false
	for wname, d := range metricRegistry {
		if !strings.HasSuffix(wname, "*") {
			continue
		}
		p := strings.TrimSuffix(wname, "*")
		if strings.HasPrefix(base, p) && (!found || len(p) > len(strings.TrimSuffix(best.Name, "*"))) {
			best, found = d, true
		}
	}
	return best, found
}

// IsMetric reports whether name (after stripping any label suffix)
// matches a registered metric or wildcard family.
func IsMetric(name string) bool {
	_, ok := lookupMetric(name)
	return ok
}

// mustMetric resolves a name or panics — the faultinject.Arm contract
// applied to metrics, so an unregistered name fails loudly in the first
// test that touches it instead of silently forking the naming scheme.
func mustMetric(name string, kind MetricKind) MetricDef {
	d, ok := lookupMetric(name)
	if !ok {
		panic(fmt.Sprintf("obs: %s %q is not a registered metric (add it to internal/obs/names.go)", kind, name))
	}
	if d.Kind != kind {
		panic(fmt.Sprintf("obs: metric %q is registered as a %s, used as a %s", name, d.Kind, kind))
	}
	return d
}
