package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sprout"
	"sprout/internal/board"
	"sprout/internal/boardio"
	"sprout/internal/geom"
	"sprout/internal/obs"
	"sprout/internal/sparse"
)

// testDecoded builds a minimal decoded board document for tests that
// inject their own route function (the board is never actually routed).
func testDecoded(t *testing.T) *boardio.Decoded {
	t.Helper()
	stack := board.Stackup{Layers: []board.Layer{
		{Name: "L1", CopperUM: 35, DielectricBelowUM: 100},
		{Name: "L2", CopperUM: 35, IsPlane: true},
	}}
	b, err := board.New("unit", geom.R(0, 0, 100, 50), stack,
		board.DesignRules{Clearance: 2, ViaCost: 5})
	if err != nil {
		t.Fatal(err)
	}
	return &boardio.Decoded{Board: b, RoutingLayer: 1}
}

// okResult is the canned success every scripted route returns.
func okResult() *sprout.BoardResult {
	return &sprout.BoardResult{Report: &obs.RunReport{Tool: "test"}}
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestAdmissionControlOverload(t *testing.T) {
	eng := New(Config{Workers: 1, QueueDepth: 1, Tracer: obs.New()})
	release := make(chan struct{})
	eng.route = func(ctx context.Context, dec *boardio.Decoded, opt sprout.RouteOptions) (*sprout.BoardResult, error) {
		<-release
		return okResult(), nil
	}
	eng.Start()
	dec := testDecoded(t)

	if _, err := eng.Submit(dec, SubmitOptions{}); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	waitFor(t, "worker to pick up job 1", func() bool { return eng.InFlight() == 1 })
	if _, err := eng.Submit(dec, SubmitOptions{}); err != nil {
		t.Fatalf("second submit should queue: %v", err)
	}
	_, err := eng.Submit(dec, SubmitOptions{})
	if !errors.Is(err, sprout.ErrOverloaded) {
		t.Fatalf("third submit: want ErrOverloaded, got %v", err)
	}

	close(release)
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := eng.Shutdown(sctx); err != nil {
		t.Fatalf("drain should complete cleanly: %v", err)
	}
	for _, id := range []string{"job-1", "job-2"} {
		st, ok := eng.Job(id)
		if !ok || st.State != StateDone {
			t.Fatalf("%s = %+v, want done", id, st)
		}
	}
	counters, _ := eng.cfg.Tracer.MetricsSnapshot()
	if counters["server.jobs.accepted"] != 2 || counters["server.jobs.rejected_overloaded"] != 1 {
		t.Fatalf("counters = %v, want 2 accepted / 1 rejected", counters)
	}
}

func TestIdempotencyKeyDedupes(t *testing.T) {
	eng := New(Config{Workers: 1, QueueDepth: 4})
	release := make(chan struct{})
	eng.route = func(ctx context.Context, dec *boardio.Decoded, opt sprout.RouteOptions) (*sprout.BoardResult, error) {
		<-release
		return okResult(), nil
	}
	eng.Start()
	defer func() {
		close(release)
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = eng.Shutdown(sctx)
	}()

	dec := testDecoded(t)
	st1, err := eng.Submit(dec, SubmitOptions{IdempotencyKey: "k1"})
	if err != nil {
		t.Fatal(err)
	}
	st2, err := eng.Submit(dec, SubmitOptions{IdempotencyKey: "k1"})
	if err != nil {
		t.Fatal(err)
	}
	if st2.ID != st1.ID || !st2.Deduped {
		t.Fatalf("retried submission must dedupe to %s, got %+v", st1.ID, st2)
	}
	st3, err := eng.Submit(dec, SubmitOptions{IdempotencyKey: "k2"})
	if err != nil {
		t.Fatal(err)
	}
	if st3.ID == st1.ID || st3.Deduped {
		t.Fatalf("fresh key must create a fresh job, got %+v", st3)
	}
}

func TestJobDeadlineExceeded(t *testing.T) {
	eng := New(Config{Workers: 1})
	eng.route = func(ctx context.Context, dec *boardio.Decoded, opt sprout.RouteOptions) (*sprout.BoardResult, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	eng.Start()
	st, err := eng.Submit(testDecoded(t), SubmitOptions{Timeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job to time out", func() bool {
		got, _ := eng.Job(st.ID)
		return got.State.Terminal()
	})
	got, _ := eng.Job(st.ID)
	if got.State != StateFailed || got.ErrorKind != KindDeadline {
		t.Fatalf("job = %+v, want failed/deadline", got)
	}

	// The HTTP view of the same failure is a 504.
	ts := httptest.NewServer(eng.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("result status = %d, want 504", resp.StatusCode)
	}
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = eng.Shutdown(sctx)
}

func TestPanicContainment(t *testing.T) {
	eng := New(Config{Workers: 1, Tracer: obs.New()})
	calls := 0
	eng.route = func(ctx context.Context, dec *boardio.Decoded, opt sprout.RouteOptions) (*sprout.BoardResult, error) {
		calls++
		if calls == 1 {
			panic("poisoned board")
		}
		return okResult(), nil
	}
	eng.Start()
	dec := testDecoded(t)
	st1, err := eng.Submit(dec, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "panicking job to fail", func() bool {
		got, _ := eng.Job(st1.ID)
		return got.State.Terminal()
	})
	got, _ := eng.Job(st1.ID)
	if got.State != StateFailed || got.ErrorKind != KindPanic {
		t.Fatalf("job = %+v, want failed/panic", got)
	}
	if !strings.Contains(got.Error, "poisoned board") {
		t.Fatalf("error should carry the panic value: %q", got.Error)
	}

	// The pool survived: the next job completes normally.
	st2, err := eng.Submit(dec, SubmitOptions{})
	if err != nil {
		t.Fatalf("engine must keep serving after a contained panic: %v", err)
	}
	waitFor(t, "follow-up job to finish", func() bool {
		got, _ := eng.Job(st2.ID)
		return got.State == StateDone
	})
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = eng.Shutdown(sctx)
}

func TestShutdownDrainsQueuedJobs(t *testing.T) {
	eng := New(Config{Workers: 1, QueueDepth: 8})
	eng.route = func(ctx context.Context, dec *boardio.Decoded, opt sprout.RouteOptions) (*sprout.BoardResult, error) {
		time.Sleep(2 * time.Millisecond)
		return okResult(), nil
	}
	eng.Start()
	dec := testDecoded(t)
	var ids []string
	for i := 0; i < 5; i++ {
		st, err := eng.Submit(dec, SubmitOptions{})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, st.ID)
	}
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := eng.Shutdown(sctx); err != nil {
		t.Fatalf("drain must complete within the deadline: %v", err)
	}
	if eng.Accepting() {
		t.Fatal("engine must stop accepting once shutdown starts")
	}
	for _, id := range ids {
		st, _ := eng.Job(id)
		if st.State != StateDone {
			t.Fatalf("queued job %s = %+v, want drained to done", id, st)
		}
	}
	if _, err := eng.Submit(dec, SubmitOptions{}); !errors.Is(err, sprout.ErrShuttingDown) {
		t.Fatalf("post-shutdown submit: want ErrShuttingDown, got %v", err)
	}
}

func TestShutdownCancelsStragglers(t *testing.T) {
	eng := New(Config{Workers: 2})
	eng.route = func(ctx context.Context, dec *boardio.Decoded, opt sprout.RouteOptions) (*sprout.BoardResult, error) {
		<-ctx.Done() // honors cancellation, like the real pipeline
		return nil, ctx.Err()
	}
	eng.Start()
	dec := testDecoded(t)
	st, err := eng.Submit(dec, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job to start", func() bool { return eng.InFlight() == 1 })

	start := time.Now()
	sctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err = eng.Shutdown(sctx)
	if err == nil {
		t.Fatal("an expired drain deadline must be reported")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain error should wrap the deadline: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("shutdown took %v, want bounded by drain deadline plus prompt cancellation", elapsed)
	}
	got, _ := eng.Job(st.ID)
	if got.State != StateFailed || got.ErrorKind != KindShutdown {
		t.Fatalf("straggler = %+v, want failed/shutdown", got)
	}
	if !strings.Contains(got.Error, sprout.ErrShuttingDown.Error()) {
		t.Fatalf("straggler error should be the typed shutdown error: %q", got.Error)
	}
}

func TestHTTPSurface(t *testing.T) {
	eng := New(Config{Workers: 1, QueueDepth: 1, Tracer: obs.New()})
	release := make(chan struct{})
	eng.route = func(ctx context.Context, dec *boardio.Decoded, opt sprout.RouteOptions) (*sprout.BoardResult, error) {
		<-release
		return okResult(), nil
	}
	eng.Start()
	ts := httptest.NewServer(eng.Handler())
	defer ts.Close()

	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		return resp, buf.Bytes()
	}

	if resp, _ := get("/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	if resp, _ := get("/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz while accepting = %d", resp.StatusCode)
	}
	if resp, _ := get("/v1/jobs/nope"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job = %d, want 404", resp.StatusCode)
	}

	// Malformed documents are a 400, not a crash.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad document = %d, want 400", resp.StatusCode)
	}

	// Fill the worker and the queue, then overload: the 429 must carry
	// Retry-After. Distinct idempotency keys keep equivalent documents
	// from content-deduping onto one job — this test wants three jobs.
	doc := encodeBoardDoc(t)
	post := func(key string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Idempotency-Key", key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := post("h1"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 1 = %d, want 202", resp.StatusCode)
	}
	waitFor(t, "worker pickup", func() bool { return eng.InFlight() == 1 })
	if resp := post("h2"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 2 = %d, want 202", resp.StatusCode)
	}
	over := post("h3")
	if over.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload = %d, want 429", over.StatusCode)
	}
	if over.Header.Get("Retry-After") == "" {
		t.Fatal("429 must carry a Retry-After hint")
	}

	// Metrics reflect the rejection and the gauges.
	mresp, body := get("/metrics?format=json")
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %d", mresp.StatusCode)
	}
	var m Metrics
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("metrics decode: %v", err)
	}
	if m.Counters["server.jobs.rejected_overloaded"] < 1 || !m.Accepting || m.Workers != 1 {
		t.Fatalf("metrics = %+v, want rejected>=1, accepting, workers=1", m)
	}

	close(release)
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := eng.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
	// Draining: readyz flips, submissions get 503 + Retry-After.
	if resp, _ := get("/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d, want 503", resp.StatusCode)
	}
	drained := post("h4")
	if drained.StatusCode != http.StatusServiceUnavailable || drained.Header.Get("Retry-After") == "" {
		t.Fatalf("post-drain submit = %d (Retry-After %q), want 503 with hint",
			drained.StatusCode, drained.Header.Get("Retry-After"))
	}
	// Results from before the drain are still served.
	if resp, _ := get("/v1/jobs/job-1/result"); resp.StatusCode != http.StatusOK {
		t.Fatalf("result after drain = %d, want 200", resp.StatusCode)
	}
}

// TestExploreJobSurface covers the sproutd exploration surface: the
// explore knobs thread from the HTTP query through SubmitOptions into
// the explorer's RouteOptions, and the sweep digest (winning order,
// cache stats) lands in job status while the winner's report is served
// as the job result.
func TestExploreJobSurface(t *testing.T) {
	eng := New(Config{Workers: 1, QueueDepth: 2, Tracer: obs.New()})
	var gotOpt sprout.RouteOptions
	eng.explore = func(ctx context.Context, dec *boardio.Decoded, opt sprout.RouteOptions) (*sprout.OrderExploration, error) {
		gotOpt = opt
		return &sprout.OrderExploration{
			Best:      okResult(),
			BestOrder: []board.NetID{1, 0},
			BestScore: 0.25,
			Tried:     2,
			Failed:    []sprout.OrderError{{Order: []board.NetID{0, 1}, Kind: sprout.OrderKindRoute}},
			Stats:     sprout.ExploreStats{Orders: 3, PrefixHits: 3, PrefixMisses: 4},
		}, nil
	}
	eng.Start()
	ts := httptest.NewServer(eng.Handler())
	defer ts.Close()
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = eng.Shutdown(sctx)
	}()

	doc := encodeBoardDoc(t)

	// A bad worker count is a 400, not a silently defaulted sweep.
	resp, err := http.Post(ts.URL+"/v1/jobs?explore=1&explore_workers=zero",
		"application/json", bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad explore_workers = %d, want 400", resp.StatusCode)
	}

	// explore_seq is no knob: it is ignored like any other unknown query
	// key, so clients that still send it keep working.
	resp, err = http.Post(ts.URL+"/v1/jobs?explore=1&explore_workers=2&explore_seq=1",
		"application/json", bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	var sub Status
	if jerr := json.NewDecoder(resp.Body).Decode(&sub); jerr != nil {
		t.Fatal(jerr)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("explore submit = %d, want 202", resp.StatusCode)
	}

	waitFor(t, "explore job to finish", func() bool {
		st, ok := eng.Job(sub.ID)
		return ok && st.State == StateDone
	})
	if gotOpt.ExploreWorkers != 2 {
		t.Fatalf("explore knobs not threaded: %+v", gotOpt)
	}

	st, _ := eng.Job(sub.ID)
	ex := st.Exploration
	if ex == nil {
		t.Fatal("done exploration job must carry an exploration summary")
	}
	if fmt.Sprint(ex.BestOrder) != "[1 0]" || ex.BestScore != 0.25 ||
		ex.OrdersTried != 2 || ex.OrdersFailed != 1 ||
		ex.PrefixHits != 3 || ex.PrefixMisses != 4 {
		t.Fatalf("exploration summary = %+v", ex)
	}

	// The winner's run report is the job result.
	rresp, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var rep obs.RunReport
	if jerr := json.NewDecoder(rresp.Body).Decode(&rep); jerr != nil {
		t.Fatal(jerr)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK || rep.Tool != "test" {
		t.Fatalf("result = %d / %+v, want 200 with the winner's report", rresp.StatusCode, rep)
	}

	counters, _ := eng.cfg.Tracer.MetricsSnapshot()
	if counters["server.explore.orders"] != 3 ||
		counters["server.explore.prefix_hits"] != 3 ||
		counters["server.explore.prefix_misses"] != 4 {
		t.Fatalf("explore counters = %v", counters)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want ErrKind
	}{
		{sprout.ErrShuttingDown, KindShutdown},
		{fmt.Errorf("wrap: %w", sprout.ErrShuttingDown), KindShutdown},
		{context.Canceled, KindShutdown},
		{context.DeadlineExceeded, KindDeadline},
		{fmt.Errorf("net VDD: %w", context.DeadlineExceeded), KindDeadline},
		{&sprout.PanicError{Value: "x"}, KindPanic},
		{fmt.Errorf("rail: %w", &sparse.SolveError{}), KindSolve},
		{errors.New("plain"), KindInternal},
	}
	for _, c := range cases {
		if got := classify(c.err); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.err, got, c.want)
		}
	}
}
