package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"sprout"
	"sprout/internal/boardio"
	"sprout/internal/obs"
)

// chromeDoc is the slice of the Chrome trace-event JSON the tests
// inspect.
type chromeDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		PID  int            `json:"pid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func getChromeTrace(t *testing.T, url string) chromeDoc {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, body)
	}
	var doc chromeDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("trace from %s is not Chrome JSON: %v", url, err)
	}
	return doc
}

// waitTerminal polls a job's status through any replica until it reaches
// a terminal state, and returns that status.
func waitTerminal(t *testing.T, base, id string) Status {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var st Status
		if callJSON(t, http.MethodGet, base+"/v1/jobs/"+id, &st) == http.StatusOK && st.State.Terminal() {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return Status{}
}

// callJSON makes one bodiless request, decodes the JSON answer into out
// (nil skips the body) and returns the status code.
func callJSON(t *testing.T, method, url string, out any) int {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s = %d with an undecodable body: %v", method, url, resp.StatusCode, err)
		}
	}
	return resp.StatusCode
}

// TestShardProxyTraceStitchAcrossFailover is the headline acceptance
// test: a job submitted to replica A whose ring owner is dead fails over
// to replica B, and afterwards EITHER replica serves one stitched Chrome
// trace in which B's Job span nests (via a cross-replica flow arrow)
// under A's ShardSubmit hop span.
func TestShardProxyTraceStitchAcrossFailover(t *testing.T) {
	doc := encodeBoardDoc(t)
	urls, _, _, servers := shardProxyFixture(t, 3)
	ring := newHashRing(urls)

	// A key whose owner is urls[2] (to be killed) and whose first
	// failover target is urls[1] — so A=r1 proxies and B=r2 executes.
	var key string
	for i := 0; key == "" && i < 100000; i++ {
		k := fmt.Sprintf("failover-trace-%d", i)
		if seq := ring.sequence(k); seq[0] == urls[2] && seq[1] == urls[1] {
			key = k
		}
	}
	if key == "" {
		t.Fatal("no key with the wanted owner/failover layout")
	}
	servers[2].Close()

	req, err := http.NewRequest(http.MethodPost, urls[0]+"/v1/jobs", bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Idempotency-Key", key)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("failover submit = %d (%+v)", resp.StatusCode, st)
	}
	if !strings.HasPrefix(st.ID, "r2-") {
		t.Fatalf("job %s did not fail over to r2", st.ID)
	}
	waitTerminal(t, urls[0], st.ID)

	// The raw parts: the proxy's hop spans from r1 plus the job tracer
	// from r2, all under one propagated trace id.
	presp, err := http.Get(urls[1] + "/v1/jobs/" + st.ID + "/traceparts")
	if err != nil {
		t.Fatal(err)
	}
	var localParts []obs.TracePart
	if err := json.NewDecoder(presp.Body).Decode(&localParts); err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	aresp, err := http.Get(urls[0] + "/v1/jobs/" + st.ID + "/traceparts")
	if err != nil {
		t.Fatal(err)
	}
	var proxyParts []obs.TracePart
	if err := json.NewDecoder(aresp.Body).Decode(&proxyParts); err != nil {
		t.Fatal(err)
	}
	aresp.Body.Close()
	all := append(append([]obs.TracePart(nil), localParts...), proxyParts...)
	if len(all) < 2 {
		t.Fatalf("want parts from both replicas, got %d", len(all))
	}
	for _, p := range all {
		if p.TraceID != all[0].TraceID {
			t.Fatalf("parts disagree on the trace id: %s vs %s", p.TraceID, all[0].TraceID)
		}
	}
	stitched, err := obs.Stitch(all)
	if err != nil {
		t.Fatal(err)
	}
	var hopID uint64
	for _, s := range stitched.Spans {
		if s.Name == "ShardSubmit" && s.Replica == "r1" && s.Err == "" {
			hopID = s.ID
		}
	}
	if hopID == 0 {
		t.Fatalf("no successful ShardSubmit hop span from r1 in %+v", stitched.Spans)
	}
	foundJob := false
	for _, s := range stitched.Spans {
		if s.Name == "Job" && s.Replica == "r2" {
			foundJob = true
			if !s.Remote || s.Parent != hopID {
				t.Fatalf("Job span must nest under r1's hop span: parent=%d remote=%v want parent=%d",
					s.Parent, s.Remote, hopID)
			}
		}
	}
	if !foundJob {
		t.Fatal("no Job span from the executing replica")
	}

	// The rendered trace is identical in structure from either replica:
	// two process rows, the hop flow arrow, the Job on r2's row.
	for _, base := range []string{urls[0], urls[1]} {
		doc := getChromeTrace(t, base+"/v1/jobs/"+st.ID+"/trace")
		pids := map[string]int{}
		spanPID := map[string]int{}
		flows := 0
		for _, ev := range doc.TraceEvents {
			switch {
			case ev.Name == "process_name" && ev.Ph == "M":
				pids[ev.Args["name"].(string)] = ev.PID
			case ev.Name == "hop" && (ev.Ph == "s" || ev.Ph == "f"):
				flows++
			case ev.Ph == "X":
				spanPID[ev.Name] = ev.PID
			}
		}
		if pids["r1"] == 0 || pids["r2"] == 0 {
			t.Fatalf("trace from %s lacks a process row per replica: %v", base, pids)
		}
		if flows < 2 {
			t.Fatalf("trace from %s draws no cross-replica flow arrow", base)
		}
		if spanPID["Job"] != pids["r2"] || spanPID["ShardSubmit"] != pids["r1"] {
			t.Fatalf("trace from %s misattributes spans: %v vs %v", base, spanPID, pids)
		}
	}
}

// TestMetricsPrometheusStageQuantiles runs a real board through the full
// pipeline and asserts the Prometheus exposition carries p50/p95/p99
// companions for every stage histogram, under replica/shard labels.
func TestMetricsPrometheusStageQuantiles(t *testing.T) {
	doc := encodeBoardDoc(t)
	tracer := obs.New(obs.WithReplica("m1"))
	eng := New(Config{Workers: 2, QueueDepth: 8, NodeName: "m1", Tracer: tracer})
	eng.Start()
	t.Cleanup(func() { _ = eng.Shutdown(context.Background()) })
	ts := httptest.NewServer(eng.Handler())
	t.Cleanup(ts.Close)

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitTerminal(t, ts.URL, st.ID)

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := mresp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Fatalf("/metrics Content-Type = %q, want %q", ct, obs.PromContentType)
	}
	body, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	if !strings.Contains(text, `replica="m1"`) || !strings.Contains(text, `shard="m1"`) {
		t.Fatal("exposition lacks the replica/shard labels")
	}
	stageFams := regexp.MustCompile(`(?m)^# TYPE (sprout_stage_\w+) histogram$`).FindAllStringSubmatch(text, -1)
	if len(stageFams) == 0 {
		t.Fatalf("no stage histograms on /metrics; a real routing job must surface stage latency\n%s", text)
	}
	for _, m := range stageFams {
		for _, q := range []string{"_p50", "_p95", "_p99"} {
			if !strings.Contains(text, "# TYPE "+m[1]+q+" gauge") {
				t.Fatalf("stage histogram %s lacks its %s companion gauge", m[1], q)
			}
		}
	}
	for _, fam := range []string{
		"sprout_server_jobs_accepted_total", "sprout_server_job_run_ms_bucket",
		"sprout_server_accepting", "sprout_server_workers",
	} {
		if !strings.Contains(text, fam) {
			t.Fatalf("exposition lacks %s", fam)
		}
	}

	// The JSON view survives under ?format=json and carries the same
	// stage histograms with ordered quantiles.
	jresp, err := http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var doc2 Metrics
	if err := json.NewDecoder(jresp.Body).Decode(&doc2); err != nil {
		t.Fatal(err)
	}
	jresp.Body.Close()
	stages := 0
	for name, h := range doc2.Histograms {
		if strings.HasPrefix(name, obs.MStagePrefix) {
			stages++
			if h.Count == 0 || h.P50 > h.P95 || h.P95 > h.P99 {
				t.Fatalf("stage histogram %s has disordered quantiles: %+v", name, h)
			}
		}
	}
	if stages == 0 {
		t.Fatal("JSON metrics lack stage histograms")
	}
}

// TestMetricsConcurrentScrapes hammers both exposition formats while
// jobs run — the -race harness for the scrape path.
func TestMetricsConcurrentScrapes(t *testing.T) {
	doc := encodeBoardDoc(t)
	eng, _ := newTestReplica(t, "scrape")
	ts := httptest.NewServer(eng.Handler())
	t.Cleanup(ts.Close)

	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				url := ts.URL + "/metrics"
				if i%2 == 1 {
					url += "?format=json"
				}
				resp, err := http.Get(url)
				if err != nil {
					errc <- err
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("scrape %s = %d", url, resp.StatusCode)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(doc))
				if err != nil {
					errc <- err
					return
				}
				req.Header.Set("Idempotency-Key", fmt.Sprintf("scrape-%d-%d", g, i))
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					errc <- err
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestMetricsScrapeDuringDrain: a scrape landing mid-drain answers
// promptly and must not hold the drain past its deadline.
func TestMetricsScrapeDuringDrain(t *testing.T) {
	release := make(chan struct{})
	tr := obs.New()
	eng := New(Config{Workers: 1, QueueDepth: 4, NodeName: "drainer", Tracer: tr})
	eng.route = func(ctx context.Context, dec *boardio.Decoded, opt sprout.RouteOptions) (*sprout.BoardResult, error) {
		select {
		case <-release:
			return &sprout.BoardResult{Report: &obs.RunReport{}}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	eng.Start()
	ts := httptest.NewServer(eng.Handler())
	t.Cleanup(ts.Close)

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(encodeBoardDoc(t)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for i := 0; eng.InFlight() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}

	drained := make(chan error, 1)
	dctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	go func() { drained <- eng.Shutdown(dctx) }()

	// Mid-drain: the scrape answers, reports not-accepting, and readyz
	// flips — the probes a rolling restart relies on.
	scrapeStart := time.Now()
	mresp, err := http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var m Metrics
	if err := json.NewDecoder(mresp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if m.Accepting {
		t.Fatal("mid-drain scrape reports accepting=true")
	}
	if d := time.Since(scrapeStart); d > 2*time.Second {
		t.Fatalf("mid-drain scrape took %v; it must not wait for the drain", d)
	}
	presp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, presp.Body)
	presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("mid-drain Prometheus scrape = %d", presp.StatusCode)
	}

	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain failed after the job released: %v", err)
	}
}

// TestFleetMetricsScatterGather: /v1/fleet/metrics on any replica rows
// up the whole ring, keeping a visible row (with the error) for a dead
// peer instead of dropping it.
func TestFleetMetricsScatterGather(t *testing.T) {
	urls, engines, tracers, servers := shardProxyFixture(t, 3)
	servers[2].Close()

	resp, err := http.Get(urls[0] + "/v1/fleet/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet metrics = %d", resp.StatusCode)
	}
	var fleet FleetMetrics
	if err := json.NewDecoder(resp.Body).Decode(&fleet); err != nil {
		t.Fatal(err)
	}
	if len(fleet.Replicas) != 3 {
		t.Fatalf("fleet view has %d rows, want 3 (self + 2 peers)", len(fleet.Replicas))
	}
	var selfRow, liveRow, deadRow int
	for _, row := range fleet.Replicas {
		switch {
		case row.Self:
			selfRow++
			if row.Metrics == nil || row.Replica != urls[0] {
				t.Fatalf("self row malformed: %+v", row)
			}
		case row.Error != "":
			deadRow++
			if row.Metrics != nil {
				t.Fatalf("dead row carries metrics: %+v", row)
			}
		case row.Metrics != nil:
			liveRow++
			if !row.Metrics.Accepting {
				t.Fatalf("live peer row not accepting: %+v", row)
			}
		}
	}
	if selfRow != 1 || liveRow != 1 || deadRow != 1 {
		t.Fatalf("rows = self %d / live %d / dead %d, want 1/1/1", selfRow, liveRow, deadRow)
	}
	counters, hists := tracers[0].MetricsSnapshot()
	if counters[obs.MFleetPeerErrors] < 1 {
		t.Fatalf("fleet.peer_errors = %d, want >= 1 for the dead peer", counters[obs.MFleetPeerErrors])
	}
	if hists[obs.MFleetScrapeMS].Count < 1 {
		t.Fatal("fleet.scrape_ms recorded nothing for the live peer")
	}
	_ = engines
}

// syncWriter serializes log writes from the engine's goroutines.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.Write(p)
}

func (s *syncWriter) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.String()
}

// TestAccessLogLines: every request produces exactly one structured
// access-log line; API routes log at Info, probe routes at Debug.
func TestAccessLogLines(t *testing.T) {
	logBuf := &syncWriter{}
	tr := obs.New()
	eng := New(Config{
		Workers: 1, QueueDepth: 4, NodeName: "logger",
		Tracer: tr, Log: obs.NewLogger(logBuf, obs.Verbose),
	})
	eng.route = func(ctx context.Context, dec *boardio.Decoded, opt sprout.RouteOptions) (*sprout.BoardResult, error) {
		return &sprout.BoardResult{Report: &obs.RunReport{}}, nil
	}
	eng.Start()
	t.Cleanup(func() { _ = eng.Shutdown(context.Background()) })
	ts := httptest.NewServer(eng.Handler())
	t.Cleanup(ts.Close)

	traceID := obs.NewTraceID()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(encodeBoardDoc(t)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.TraceHeaderName, obs.TraceContext{TraceID: traceID, Parent: 1}.Header())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	sresp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()

	logs := logBuf.String()
	var submitLine, healthLine, statusLine string
	for _, line := range strings.Split(logs, "\n") {
		if !strings.Contains(line, `msg="http request"`) {
			continue
		}
		switch {
		case strings.Contains(line, "route=submit"):
			submitLine = line
		case strings.Contains(line, "route=healthz"):
			healthLine = line
		case strings.Contains(line, "route=status"):
			statusLine = line
		}
	}
	if submitLine == "" || healthLine == "" || statusLine == "" {
		t.Fatalf("missing access-log lines:\n%s", logs)
	}
	for _, want := range []string{"level=INFO", "method=POST", "status=202", "dur_ms=", "trace=" + traceID} {
		if !strings.Contains(submitLine, want) {
			t.Fatalf("submit line %q lacks %q", submitLine, want)
		}
	}
	if !strings.Contains(healthLine, "level=DEBUG") {
		t.Fatalf("probe route must log at Debug, got %q", healthLine)
	}
	if !strings.Contains(statusLine, "job="+st.ID) {
		t.Fatalf("status line %q lacks the job id", statusLine)
	}
}
