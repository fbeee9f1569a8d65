package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"syscall"
	"testing"
	"time"

	"sprout"
	"sprout/internal/board"
	"sprout/internal/boardio"
	"sprout/internal/faultinject"
	"sprout/internal/geom"
	"sprout/internal/obs"
	"sprout/internal/sparse"
)

// encodeBoardDoc builds a genuinely routable two-rail board and encodes
// it as the JSON document the HTTP API accepts.
func encodeBoardDoc(t testing.TB) []byte {
	t.Helper()
	return namedBoardDoc(t, "chaos2")
}

// namedBoardDoc is encodeBoardDoc with a caller-chosen board name, so
// chaos scripts can tell one submission's board apart from another's.
func namedBoardDoc(t testing.TB, name string) []byte {
	t.Helper()
	stack := board.Stackup{Layers: []board.Layer{
		{Name: "L1", CopperUM: 35, DielectricBelowUM: 100},
		{Name: "L2", CopperUM: 35, IsPlane: true},
	}}
	rules := board.DesignRules{Clearance: 2, ViaCost: 5}
	b, err := board.New(name, geom.R(0, 0, 200, 100), stack, rules)
	if err != nil {
		t.Fatal(err)
	}
	budgets := map[board.NetID]int64{}
	for i, y := range []int64{20, 70} {
		net := b.AddNet([]string{"VDD", "VIO"}[i], 2, 5)
		budgets[net] = 3000
		if err := b.AddGroup(board.TerminalGroup{
			Name: "pmic" + b.Nets[i].Name, Kind: board.KindPMIC, Net: net, Layer: 1, Current: 2,
			Pads: []geom.Region{geom.RegionFromRect(geom.R(4, y, 12, y+10))},
		}); err != nil {
			t.Fatal(err)
		}
		if err := b.AddGroup(board.TerminalGroup{
			Name: "bga" + b.Nets[i].Name, Kind: board.KindBGA, Net: net, Layer: 1, Current: 2,
			Pads: []geom.Region{geom.RegionFromRect(geom.R(180, y, 188, y+10))},
		}); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	dec := &boardio.Decoded{Board: b, RoutingLayer: 1, Budgets: budgets, Config: sprout.RouteConfig{DX: 5, DY: 5}}
	if err := boardio.Encode(&buf, dec); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestChaosShutdownUnderLoad is the chaos/soak test of the acceptance
// criteria: concurrent clients hammer the server while probabilistic
// fault injection fires inside the pipeline and a real SIGTERM lands
// mid-load. It asserts the three hardening invariants:
//
//  1. zero accepted-job loss — every job that got a 2xx submission
//     reaches a terminal state with a result or a typed error;
//  2. rejected submissions are typed and carry Retry-After;
//  3. shutdown completes within the drain deadline (plus scheduling
//     slack).
//
// SPROUT_SOAK=N scales the load for the CI soak job.
func TestChaosShutdownUnderLoad(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	doc := encodeBoardDoc(t)

	// Intermittent, seeded chaos inside the pipeline: occasional solver
	// breakdowns (the ladder absorbs most) and latency at the grow loop.
	faultinject.ArmProbabilistic(faultinject.SiteCG, 42, 0.05,
		func() error { return sparse.ErrNoConvergence })
	faultinject.ArmLatency(faultinject.SiteGrow, 43, 0.25, 300*time.Microsecond)

	soak := 1
	if v, err := strconv.Atoi(os.Getenv("SPROUT_SOAK")); err == nil && v > 1 {
		soak = v
	}
	const drainTimeout = 10 * time.Second

	tracer := obs.New()
	eng := New(Config{
		Workers:    3,
		QueueDepth: 6,
		JobTimeout: 30 * time.Second,
		RetryAfter: time.Second,
		Tracer:     tracer,
	})
	// Floor every job at ~2ms so a tight submission burst reliably
	// overloads the small queue and the drain has real work in flight.
	orig := eng.route
	eng.route = func(ctx context.Context, dec *boardio.Decoded, opt sprout.RouteOptions) (*sprout.BoardResult, error) {
		time.Sleep(2 * time.Millisecond)
		return orig(ctx, dec, opt)
	}
	eng.Start()
	ts := httptest.NewServer(eng.Handler())
	defer ts.Close()

	// The shutdown trigger is a real SIGTERM delivered to this process
	// mid-load, routed through the same signal plumbing cmd/sproutd uses.
	sigCtx, stopSig := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stopSig()

	var (
		mu       sync.Mutex
		accepted = map[string]bool{}
		rejected int
	)
	// Each client makes perClient single-attempt submissions spread over
	// twice the SIGTERM delay, so the signal lands mid-load: the early
	// submissions meet the small queue, the late ones meet the drain.
	const sigDelay = 150 * time.Millisecond
	clients := 4
	perClient := 4 * soak
	gap := 2 * sigDelay / time.Duration(perClient)
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				if i > 0 {
					time.Sleep(gap)
				}
				key := fmt.Sprintf("chaos-%d-%d", ci, i)
				resp, st, err := postJob(ts.URL, doc, key)
				mu.Lock()
				switch {
				case err != nil:
					t.Errorf("submit %s: %v", key, err)
				case resp.StatusCode == http.StatusAccepted:
					accepted[st.ID] = true
				case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
					// Invariant 2: a typed rejection with a Retry-After
					// hint. The submitter knows the job never landed —
					// rejection, not loss.
					rejected++
					if resp.Header.Get("Retry-After") == "" {
						t.Errorf("submit %s = %d without Retry-After", key, resp.StatusCode)
					}
				default:
					t.Errorf("submit %s = %d, want 202, 429 or 503", key, resp.StatusCode)
				}
				mu.Unlock()
			}
		}(ci)
	}

	// Let load build, then deliver SIGTERM to ourselves.
	time.Sleep(sigDelay)
	proc, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if err := proc.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sigCtx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("SIGTERM never arrived")
	}

	drainStart := time.Now()
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	drainErr := eng.Shutdown(dctx)
	drainDur := time.Since(drainStart)
	wg.Wait()

	if drainDur > drainTimeout+5*time.Second {
		t.Fatalf("shutdown took %v, want bounded by the %v drain deadline", drainDur, drainTimeout)
	}
	if drainErr != nil {
		// Stragglers were cancelled — allowed, but then every one of them
		// must still be terminal below.
		t.Logf("drain cancelled stragglers: %v", drainErr)
	}

	// Invariant 1: zero accepted-job loss. Every accepted job is
	// terminal, with either a report (done) or a typed error (failed).
	mu.Lock()
	defer mu.Unlock()
	if len(accepted) == 0 {
		t.Fatal("chaos run accepted no jobs; load generator misconfigured")
	}
	done, failed := 0, 0
	for id := range accepted {
		st, ok := eng.Job(id)
		if !ok {
			t.Fatalf("accepted job %s vanished from the store", id)
		}
		if !st.State.Terminal() {
			t.Fatalf("accepted job %s stuck in state %s after shutdown", id, st.State)
		}
		switch st.State {
		case StateDone:
			done++
			_, rep, _, _ := eng.Result(id)
			if rep == nil {
				t.Fatalf("done job %s has no run report", id)
			}
		case StateFailed:
			failed++
			switch st.ErrorKind {
			case KindShutdown, KindDeadline, KindSolve, KindInternal:
			default:
				t.Fatalf("failed job %s has unexpected kind %q (err %s)", id, st.ErrorKind, st.Error)
			}
		}
	}
	t.Logf("chaos: %d accepted (%d done, %d failed), %d rejected, drain %v, cg checks %d (%d fired)",
		len(accepted), done, failed, rejected, drainDur,
		faultinject.Calls(faultinject.SiteCG), faultinject.Fired(faultinject.SiteCG))

	// Invariant 2, after the load: post-drain submissions are typed 503s
	// with a Retry-After hint (TestHTTPSurface pins the 429 variant).
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("post-drain submit = %d (Retry-After %q), want 503 with hint",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	// Bookkeeping cross-check: the accepted counter matches the set the
	// clients observed, so nothing was double-counted or lost.
	counters, _ := tracer.MetricsSnapshot()
	if got := counters["server.jobs.accepted"]; got != int64(len(accepted)) {
		t.Fatalf("accepted counter = %d, clients saw %d", got, len(accepted))
	}
	if got := counters["server.jobs.done"] + counters["server.jobs.failed"]; got != int64(len(accepted)) {
		t.Fatalf("terminal counters = %d, want %d (every accepted job terminal)", got, len(accepted))
	}
}
