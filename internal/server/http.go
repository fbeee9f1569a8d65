package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"time"

	"sprout"
	"sprout/internal/boardio"
	"sprout/internal/obs"
)

// maxBodyBytes bounds a board document upload; anything larger is a 413,
// not an allocation.
const maxBodyBytes = 8 << 20

// Handler returns the sproutd HTTP API:
//
//	POST /v1/jobs                  submit a board document (boardio schema)
//	GET  /v1/jobs                  list jobs (?state= filters, e.g. quarantined)
//	GET  /v1/jobs/{id}             poll job status
//	POST /v1/jobs/{id}/requeue     revive a quarantined job
//	GET  /v1/jobs/{id}/result      fetch the run report of a terminal job
//	GET  /v1/jobs/{id}/trace       fetch the job's stitched Chrome trace
//	GET  /v1/jobs/{id}/traceparts  raw trace parts known to this replica
//	GET  /v1/fleet/metrics         per-replica metric snapshots
//	GET  /healthz                  process liveness (always 200)
//	GET  /readyz                   admission readiness (503 while draining)
//	GET  /metrics                  Prometheus text (?format=json for JSON)
//
// Failed jobs surface through /result with the status code of the
// DESIGN "Failure semantics" matrix: 503 shutdown, 504 deadline,
// 500 panic/solve/internal.
func (e *Engine) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", e.instrument("submit", e.handleSubmit))
	mux.HandleFunc("GET /v1/jobs", e.instrument("list", e.handleList))
	mux.HandleFunc("GET /v1/jobs/{id}", e.instrument("status", e.handleStatus))
	mux.HandleFunc("POST /v1/jobs/{id}/requeue", e.instrument("requeue", e.handleRequeue))
	mux.HandleFunc("GET /v1/jobs/{id}/result", e.instrument("result", e.handleResult))
	mux.HandleFunc("GET /v1/jobs/{id}/trace", e.instrument("trace", e.handleTrace))
	mux.HandleFunc("GET /v1/jobs/{id}/traceparts", e.instrument("traceparts", e.handleTraceParts))
	mux.HandleFunc("GET /v1/fleet/metrics", e.instrument("fleet_metrics", e.handleFleetMetrics))
	mux.HandleFunc("GET /healthz", e.instrument("healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	}))
	mux.HandleFunc("GET /readyz", e.instrument("readyz", func(w http.ResponseWriter, r *http.Request) {
		if e.Accepting() {
			writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
			return
		}
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
	}))
	mux.HandleFunc("GET /metrics", e.instrument("metrics", e.handleMetrics))
	return mux
}

// probeRoutes are scraped or polled continuously; their access-log lines
// go to Debug so a steady-state server stays quiet at the default level.
var probeRoutes = map[string]bool{"healthz": true, "readyz": true, "metrics": true}

// statusRecorder captures the status a wrapped handler writes.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (s *statusRecorder) WriteHeader(code int) {
	if s.status == 0 {
		s.status = code
	}
	s.ResponseWriter.WriteHeader(code)
}

func (s *statusRecorder) Write(b []byte) (int, error) {
	if s.status == 0 {
		s.status = http.StatusOK
	}
	return s.ResponseWriter.Write(b)
}

// instrument wraps a handler with the per-request observability surface:
// an http.request_ms observation labeled by route and status, and one
// structured access-log line (method, route, status, duration, job id,
// trace id, forwarding replica).
func (e *Engine) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w}
		h(rec, r)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		dur := time.Since(start)
		if e.cfg.Tracer.Enabled() {
			e.cfg.Tracer.Histogram(obs.WithLabels(obs.MHTTPRequestMS,
				"route", route, "status", strconv.Itoa(rec.status))).
				Observe(float64(dur.Nanoseconds()) / 1e6)
		}
		attrs := []any{
			"method", r.Method, "route", route, "status", rec.status,
			"dur_ms", float64(dur.Microseconds()) / 1e3,
		}
		if id := r.PathValue("id"); id != "" {
			attrs = append(attrs, "job", id)
		}
		if tc, ok := obs.ParseTraceContext(r.Header.Get(obs.TraceHeaderName)); ok {
			attrs = append(attrs, "trace", tc.TraceID)
		}
		if fwd := r.Header.Get(forwardedByHeader); fwd != "" {
			attrs = append(attrs, "forwarded_by", fwd)
		}
		if probeRoutes[route] {
			e.cfg.Log.Debug("http request", attrs...)
		} else {
			e.cfg.Log.Info("http request", attrs...)
		}
	}
}

// statusFor maps a failure kind to its client-visible HTTP status — one
// half of the failure-semantics matrix (the submit path's 429/503 is the
// other half).
func statusFor(kind ErrKind) int {
	switch kind {
	case KindShutdown:
		return http.StatusServiceUnavailable
	case KindDeadline:
		return http.StatusGatewayTimeout
	case KindPoisoned:
		// Quarantined: the document itself keeps killing the worker, so
		// retrying as-is is futile — an operator requeue is the retry.
		return http.StatusUnprocessableEntity
	default: // panic, solve, internal
		return http.StatusInternalServerError
	}
}

func (e *Engine) handleSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec, err := boardio.Decode(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	opt := SubmitOptions{IdempotencyKey: r.Header.Get("Idempotency-Key")}
	if tc, ok := obs.ParseTraceContext(r.Header.Get(obs.TraceHeaderName)); ok {
		// Malformed headers detach the trace rather than failing the
		// submission — tracing is best-effort.
		opt.Trace = tc
	}
	if v := r.URL.Query().Get("timeout"); v != "" {
		d, perr := time.ParseDuration(v)
		if perr != nil || d <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad timeout %q: want a positive Go duration", v))
			return
		}
		opt.Timeout = d
	}
	opt.WithManual = r.URL.Query().Get("manual") == "1"
	opt.SkipExtract = r.URL.Query().Get("skip_extract") == "1"
	opt.Explore = r.URL.Query().Get("explore") == "1"
	if v := r.URL.Query().Get("explore_workers"); v != "" {
		n, perr := strconv.Atoi(v)
		if perr != nil || n < 1 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad explore_workers %q: want a positive integer", v))
			return
		}
		opt.ExploreWorkers = n
	}

	st, err := e.Submit(dec, opt)
	switch {
	case errors.Is(err, sprout.ErrOverloaded):
		e.writeRetryable(w, http.StatusTooManyRequests, err)
	case errors.Is(err, sprout.ErrShuttingDown):
		e.writeRetryable(w, http.StatusServiceUnavailable, err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
	case st.Deduped:
		writeJSON(w, http.StatusOK, st)
	default:
		writeJSON(w, http.StatusAccepted, st)
	}
}

func (e *Engine) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := e.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// JobList is the GET /v1/jobs document.
type JobList struct {
	Jobs []Status `json:"jobs"`
}

// handleList serves job status snapshots, optionally filtered by state
// (?state=quarantined is the operator's quarantine listing). In a
// sharded deployment this lists the local replica only.
func (e *Engine) handleList(w http.ResponseWriter, r *http.Request) {
	state := JobState(r.URL.Query().Get("state"))
	switch state {
	case "", StateQueued, StateRunning, StateDone, StateFailed, StateQuarantined:
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown state %q", state))
		return
	}
	jobs := e.List(state)
	if jobs == nil {
		jobs = []Status{}
	}
	writeJSON(w, http.StatusOK, JobList{Jobs: jobs})
}

// handleRequeue revives a quarantined job. 404 unknown id, 409 when the
// job is not quarantined, 429/503 when admission has no room; 200 with
// the refreshed status on success.
func (e *Engine) handleRequeue(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, known, err := e.Requeue(id)
	switch {
	case !known:
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
	case errors.Is(err, ErrNotQuarantined):
		writeError(w, http.StatusConflict, err)
	case errors.Is(err, sprout.ErrOverloaded):
		e.writeRetryable(w, http.StatusTooManyRequests, err)
	case errors.Is(err, sprout.ErrShuttingDown):
		e.writeRetryable(w, http.StatusServiceUnavailable, err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
	default:
		writeJSON(w, http.StatusOK, st)
	}
}

func (e *Engine) handleResult(w http.ResponseWriter, r *http.Request) {
	st, rep, _, ok := e.Result(r.PathValue("id"))
	switch {
	case !ok:
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
	case !st.State.Terminal():
		// Not ready yet: 202 tells the client to keep polling.
		writeJSON(w, http.StatusAccepted, st)
	case st.State == StateQuarantined:
		// Quarantined jobs have no report and will not progress on their
		// own; 422 tells the client to stop polling and escalate.
		writeJSON(w, statusFor(KindPoisoned), st)
	case st.State == StateFailed:
		writeJSON(w, statusFor(st.ErrorKind), st)
	case rep == nil:
		writeError(w, http.StatusInternalServerError, fmt.Errorf("job %s finished without a report", st.ID))
	default:
		writeJSON(w, http.StatusOK, rep)
	}
}

func (e *Engine) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, _, tracer, ok := e.Result(id)
	switch {
	case !ok:
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
	case tracer == nil && len(e.TraceParts(id)) == 0:
		// Never started: nothing was traced.
		writeJSON(w, http.StatusAccepted, st)
	default:
		// Stitch everything known locally — the job's own spans plus any
		// parts the proxy layer recorded — into one Chrome trace. (The
		// shard handler extends this with parts gathered from peers.)
		writeStitchedTrace(w, e.cfg.Log, id, e.TraceParts(id))
	}
}

// writeStitchedTrace merges trace parts and writes the Chrome trace.
func writeStitchedTrace(w http.ResponseWriter, log *slog.Logger, jobID string, parts []obs.TracePart) {
	st, err := obs.Stitch(parts)
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("stitch trace: %w", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := st.WriteChromeTrace(w); err != nil {
		log.Warn("trace write failed", "job", jobID, "err", err)
	}
}

// handleTraceParts serves the raw trace parts this replica holds for a
// job — the stitcher's wire format, fetched peer-to-peer by whichever
// replica is asked for the full trace.
func (e *Engine) handleTraceParts(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	parts := e.TraceParts(id)
	if len(parts) == 0 && e.store.Get(id) == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, parts)
}

// Metrics is the /metrics document: the engine gauges plus the server
// tracer's counters and histograms.
type Metrics struct {
	Accepting  bool                            `json:"accepting"`
	QueueLen   int                             `json:"queue_len"`
	QueueCap   int                             `json:"queue_cap"`
	InFlight   int64                           `json:"in_flight"`
	Workers    int                             `json:"workers"`
	Counters   map[string]int64                `json:"counters,omitempty"`
	Gauges     map[string]int64                `json:"gauges,omitempty"`
	Histograms map[string]obs.HistogramSummary `json:"histograms,omitempty"`
}

// metricsDoc assembles the JSON metrics snapshot.
func (e *Engine) metricsDoc() Metrics {
	counters, hists := e.cfg.Tracer.MetricsSnapshot()
	return Metrics{
		Accepting:  e.Accepting(),
		QueueLen:   e.QueueLen(),
		QueueCap:   e.cfg.QueueDepth,
		InFlight:   e.InFlight(),
		Workers:    e.cfg.Workers,
		Counters:   counters,
		Gauges:     e.cfg.Tracer.GaugesSnapshot(),
		Histograms: hists,
	}
}

// handleMetrics serves Prometheus text exposition by default and the
// original JSON document under ?format=json. Both views read the same
// snapshot; gauges are synced from the engine's live state first.
func (e *Engine) handleMetrics(w http.ResponseWriter, r *http.Request) {
	e.syncGauges()
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, http.StatusOK, e.metricsDoc())
		return
	}
	w.Header().Set("Content-Type", obs.PromContentType)
	e.cfg.Tracer.WritePrometheus(w, obs.PromOptions{
		Labels: []string{"replica", e.cfg.NodeName, "shard", e.cfg.NodeName},
	})
}

// FleetReplica is one replica's row of the fleet metrics document. An
// unreachable replica keeps its row, with Error set and Metrics nil, so
// a partial fleet view is visibly partial rather than silently smaller.
type FleetReplica struct {
	Replica string   `json:"replica"`
	Self    bool     `json:"self,omitempty"`
	Error   string   `json:"error,omitempty"`
	Metrics *Metrics `json:"metrics,omitempty"`
}

// FleetMetrics aggregates per-replica metric snapshots.
type FleetMetrics struct {
	Replicas []FleetReplica `json:"replicas"`
}

// handleFleetMetrics serves the single-replica fleet view; the shard
// handler shadows this route with a scatter-gather across the peer set.
func (e *Engine) handleFleetMetrics(w http.ResponseWriter, r *http.Request) {
	e.syncGauges()
	doc := e.metricsDoc()
	writeJSON(w, http.StatusOK, FleetMetrics{
		Replicas: []FleetReplica{{Replica: e.cfg.NodeName, Self: true, Metrics: &doc}},
	})
}

// writeRetryable writes a typed rejection with the Retry-After hint
// clients use to pace their backoff.
func (e *Engine) writeRetryable(w http.ResponseWriter, code int, err error) {
	secs := int(math.Ceil(e.cfg.RetryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	writeError(w, code, err)
}

type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorBody{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(v)
}
