package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"testing"
	"time"

	"sprout"
	"sprout/internal/boardio"
	"sprout/internal/obs"
)

// TestChaosKillAndRecover is the crash-recovery half of the chaos suite:
// a loaded engine on a persistent store is killed mid-flight (WAL writes
// stop cold, exactly like SIGKILL), the same data directory is reopened,
// and a fresh engine must re-run every accepted-but-unfinished job so
// every accepted job reaches a terminal state exactly once — with the
// pre-crash results still served from the durable store.
func TestChaosKillAndRecover(t *testing.T) {
	dir := t.TempDir()
	doc := encodeBoardDoc(t)

	// SPROUT_SOAK=N scales the load for the CI crash-recovery soak job.
	soak := 1
	if v, err := strconv.Atoi(os.Getenv("SPROUT_SOAK")); err == nil && v > 1 {
		soak = v
	}
	total := 8 * soak
	finishedBeforeKill := 3 * soak

	tr := obs.New()
	ps, err := OpenStore(dir, StoreOptions{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	eng := New(Config{Workers: 2, QueueDepth: total + 8, JobTimeout: 30 * time.Second, Store: ps, Tracer: tr})
	// Scripted route: each job completes only when released, so the test
	// controls exactly how many finish records hit the WAL before the kill.
	release := make(chan struct{})
	eng.route = func(ctx context.Context, dec *boardio.Decoded, opt sprout.RouteOptions) (*sprout.BoardResult, error) {
		select {
		case <-release:
			return &sprout.BoardResult{Report: &obs.RunReport{Tool: "pre-crash"}}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	eng.Start()
	ts := httptest.NewServer(eng.Handler())

	ids := make([]string, 0, total)
	for i := 0; i < total; i++ {
		resp, st, err := postJob(ts.URL, doc, fmt.Sprintf("kr-%d", i))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d = %d, want 202", i, resp.StatusCode)
		}
		ids = append(ids, st.ID)
	}
	for i := 0; i < finishedBeforeKill; i++ {
		release <- struct{}{}
	}
	waitFor(t, "pre-crash jobs to finish", func() bool {
		counters, _ := tr.MetricsSnapshot()
		return counters["server.jobs.done"] >= int64(finishedBeforeKill)
	})

	// Crash: the disk stops taking writes, then the process "dies" — an
	// already-expired drain deadline cancels everything still running.
	ps.Kill()
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	_ = eng.Shutdown(dead)
	ts.Close()
	ps.Close()

	// Restart on the same data directory.
	tr2 := obs.New()
	ps2, err := OpenStore(dir, StoreOptions{Tracer: tr2})
	if err != nil {
		t.Fatalf("reopen after kill: %v", err)
	}
	wantRecovered := total - finishedBeforeKill
	if got := len(ps2.Recovered()); got != wantRecovered {
		t.Fatalf("recovered %d jobs, want %d (accepted %d, %d finished pre-kill)",
			got, wantRecovered, total, finishedBeforeKill)
	}
	eng2 := New(Config{Workers: 2, QueueDepth: 32, JobTimeout: 30 * time.Second, Store: ps2, Tracer: tr2})
	eng2.route = func(ctx context.Context, dec *boardio.Decoded, opt sprout.RouteOptions) (*sprout.BoardResult, error) {
		return &sprout.BoardResult{Report: &obs.RunReport{Tool: "post-crash"}}, nil
	}
	eng2.Start()
	ts2 := httptest.NewServer(eng2.Handler())
	defer ts2.Close()

	waitFor(t, "recovered jobs to re-run", func() bool {
		for _, id := range ids {
			st, ok := eng2.Job(id)
			if !ok || !st.State.Terminal() {
				return false
			}
		}
		return true
	})

	// Exactly-once terminal: every accepted job is present and done, and
	// each pre-crash result survived with its persisted report.
	done := 0
	for _, id := range ids {
		st, ok := eng2.Job(id)
		if !ok {
			t.Fatalf("accepted job %s lost across the crash", id)
		}
		if st.State != StateDone {
			t.Fatalf("job %s = %s (%s), want done", id, st.State, st.Error)
		}
		done++
		_, rep, _, _ := eng2.Result(id)
		if rep == nil {
			t.Fatalf("job %s has no report after recovery", id)
		}
	}
	if done != total {
		t.Fatalf("done = %d, want %d", done, total)
	}
	preCrash := 0
	for _, id := range ids {
		if _, rep, _, _ := eng2.Result(id); rep != nil && rep.Tool == "pre-crash" {
			preCrash++
		}
	}
	if preCrash != finishedBeforeKill {
		t.Fatalf("%d pre-crash reports survived, want %d (finish records were on disk)",
			preCrash, finishedBeforeKill)
	}

	// The recovery counters are visible on the public /metrics surface.
	resp, err := http.Get(ts2.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if got := m.Counters["wal.recovered_jobs"]; got != int64(wantRecovered) {
		t.Fatalf("/metrics wal.recovered_jobs = %d, want %d", got, wantRecovered)
	}
	if got := m.Counters["server.jobs.recovered"]; got != int64(wantRecovered) {
		t.Fatalf("/metrics server.jobs.recovered = %d, want %d", got, wantRecovered)
	}

	if err := eng2.Shutdown(context.Background()); err != nil {
		t.Fatalf("clean drain after recovery: %v", err)
	}
	if err := ps2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveredJobsRespectAdmissionOrder: a restart with a backlog
// deeper than the admission queue must not deadlock — the engine sizes
// its queue to absorb every recovered job.
func TestRecoveredBacklogDeeperThanQueue(t *testing.T) {
	dir := t.TempDir()
	doc := encodeBoardDoc(t)
	ps, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const backlog = 12
	for i := 0; i < backlog; i++ {
		if _, _, err := ps.Create(specFor(t, doc, fmt.Sprintf("bk-%d", i)), time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	ps.Kill()
	ps.Close()

	ps2, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ps2.Close()
	if got := len(ps2.Recovered()); got != backlog {
		t.Fatalf("recovered %d, want %d", got, backlog)
	}
	// QueueDepth 2 << backlog 12: Start must still return promptly.
	eng := New(Config{Workers: 1, QueueDepth: 2, Store: ps2, Tracer: obs.New()})
	eng.route = func(ctx context.Context, dec *boardio.Decoded, opt sprout.RouteOptions) (*sprout.BoardResult, error) {
		return &sprout.BoardResult{Report: &obs.RunReport{}}, nil
	}
	started := make(chan struct{})
	go func() {
		eng.Start()
		close(started)
	}()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("Start deadlocked re-enqueuing a backlog deeper than the queue")
	}
	waitFor(t, "backlog to drain", func() bool {
		return len(eng.store.NonTerminal()) == 0
	})
	if err := eng.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}
