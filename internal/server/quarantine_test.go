package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sprout"
	"sprout/internal/boardio"
	"sprout/internal/obs"
)

// TestChaosPoisonJobQuarantine is the crash-loop half of the self-healing
// suite: one deterministic-poison board takes the process down on every
// attempt while good jobs keep finishing. After exactly MaxAttempts real
// kill/recover cycles the poison job must land in quarantine — diagnostics
// and attempt count preserved across further restarts, the board never
// run again — and an operator requeue must revive it once it is healed.
func TestChaosPoisonJobQuarantine(t *testing.T) {
	dir := t.TempDir()
	poisonDoc := namedBoardDoc(t, "poison")
	goodDoc := encodeBoardDoc(t)

	// SPROUT_SOAK=N scales the good-job traffic per cycle.
	soak := 1
	if v, err := strconv.Atoi(os.Getenv("SPROUT_SOAK")); err == nil && v > 1 {
		soak = v
	}

	// healed flips once the "bug" is fixed: until then the poison board
	// hangs its worker until the process dies.
	var healed atomic.Bool
	script := func(ctx context.Context, dec *boardio.Decoded, opt sprout.RouteOptions) (*sprout.BoardResult, error) {
		if dec.Board.Name == "poison" && !healed.Load() {
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return &sprout.BoardResult{Report: &obs.RunReport{Tool: dec.Board.Name}}, nil
	}

	var poisonID string
	for cycle := 1; cycle <= DefaultMaxAttempts; cycle++ {
		tr := obs.New()
		ps, err := OpenStore(dir, StoreOptions{Tracer: tr})
		if err != nil {
			t.Fatalf("cycle %d: open: %v", cycle, err)
		}
		wantRecovered := 1
		if cycle == 1 {
			wantRecovered = 0
		}
		if got := len(ps.Recovered()); got != wantRecovered {
			t.Fatalf("cycle %d: recovered %d jobs, want %d", cycle, got, wantRecovered)
		}
		eng := New(Config{Workers: 2, QueueDepth: 8 + soak, JobTimeout: 30 * time.Second, Store: ps, Tracer: tr})
		eng.route = script
		eng.Start()
		ts := httptest.NewServer(eng.Handler())

		if cycle == 1 {
			resp, st, err := postJob(ts.URL, poisonDoc, "poison")
			if err != nil {
				t.Fatalf("submit poison: %v", err)
			}
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit poison = %d, want 202", resp.StatusCode)
			}
			poisonID = st.ID
		}
		// The poison job's start must be durable (attempt c on the WAL)
		// before this cycle's crash.
		waitFor(t, fmt.Sprintf("poison attempt %d to start", cycle), func() bool {
			st, ok := eng.Job(poisonID)
			return ok && st.State == StateRunning && st.Attempts == cycle
		})
		// The replica keeps serving while the poison job wedges a worker.
		for i := 0; i < soak; i++ {
			_, st, err := postJob(ts.URL, goodDoc, fmt.Sprintf("good-%d-%d", cycle, i))
			if err != nil {
				t.Fatalf("cycle %d: submit good job: %v", cycle, err)
			}
			if fin := waitTerminal(t, ts.URL, st.ID); fin.State != StateDone {
				t.Fatalf("cycle %d: good job alongside poison = %s (%s), want done", cycle, fin.State, fin.Error)
			}
		}

		// SIGKILL: the disk stops taking writes, then the process dies.
		ps.Kill()
		dead, cancel := context.WithCancel(context.Background())
		cancel()
		_ = eng.Shutdown(dead)
		ts.Close()
		ps.Close()
	}

	// Recovery after the MaxAttempts-th crash: the poison job is out of
	// budget and must be quarantined, not re-enqueued.
	tr := obs.New()
	ps, err := OpenStore(dir, StoreOptions{Tracer: tr})
	if err != nil {
		t.Fatalf("reopen after final crash: %v", err)
	}
	if got := len(ps.Recovered()); got != 0 {
		t.Fatalf("recovered %d jobs, want 0 (poison must be quarantined, good jobs terminal)", got)
	}
	q := ps.Quarantined()
	if len(q) != 1 || q[0].ID() != poisonID {
		t.Fatalf("quarantined = %v, want exactly [%s]", q, poisonID)
	}
	counters, _ := tr.MetricsSnapshot()
	if counters[obs.MJobsQuarantined] != 1 {
		t.Fatalf("%s = %d, want 1", obs.MJobsQuarantined, counters[obs.MJobsQuarantined])
	}
	eng := New(Config{Workers: 2, QueueDepth: 8, JobTimeout: 30 * time.Second, Store: ps, Tracer: tr})
	eng.route = func(ctx context.Context, dec *boardio.Decoded, opt sprout.RouteOptions) (*sprout.BoardResult, error) {
		if dec.Board.Name == "poison" {
			t.Errorf("quarantined board was routed again without a requeue")
		}
		return script(ctx, dec, opt)
	}
	eng.Start()
	ts := httptest.NewServer(eng.Handler())

	st, ok := eng.Job(poisonID)
	if !ok {
		t.Fatalf("poison job %s lost across the crashes", poisonID)
	}
	if st.State != StateQuarantined || st.ErrorKind != KindPoisoned {
		t.Fatalf("poison job = %s/%s, want quarantined/poisoned", st.State, st.ErrorKind)
	}
	if st.Attempts != DefaultMaxAttempts {
		t.Fatalf("poison attempts = %d, want %d", st.Attempts, DefaultMaxAttempts)
	}
	if !strings.Contains(st.Error, fmt.Sprintf("quarantined after %d attempts", DefaultMaxAttempts)) {
		t.Fatalf("quarantine diagnostics missing attempt history: %q", st.Error)
	}
	// The replica stays healthy: a fresh job routes while the poison sits.
	_, fresh, err := postJob(ts.URL, goodDoc, "good-after-quarantine")
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitTerminal(t, ts.URL, fresh.ID); fin.State != StateDone {
		t.Fatalf("fresh job after quarantine = %s (%s), want done", fin.State, fin.Error)
	}

	// Operator surfaces: the quarantine listing shows the job, and the
	// result endpoint answers 422 with the quarantined status, a terminal
	// answer that tells the caller to stop polling.
	var listed JobList
	if code := callJSON(t, http.MethodGet, ts.URL+"/v1/jobs?state="+string(StateQuarantined), &listed); code != http.StatusOK {
		t.Fatalf("quarantine listing = HTTP %d, want 200", code)
	}
	if len(listed.Jobs) != 1 || listed.Jobs[0].ID != poisonID {
		t.Fatalf("quarantine listing = %+v, want exactly [%s]", listed.Jobs, poisonID)
	}
	var qst Status
	if code := callJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+poisonID+"/result", &qst); code != http.StatusUnprocessableEntity {
		t.Fatalf("result of quarantined job = HTTP %d, want 422", code)
	}
	if qst.State != StateQuarantined || qst.Attempts != DefaultMaxAttempts || qst.ErrorKind != KindPoisoned {
		t.Fatalf("quarantined result status = %+v", qst)
	}

	// Requeue rejections are typed: unknown id is 404, non-quarantined 409.
	if code := callJSON(t, http.MethodPost, ts.URL+"/v1/jobs/job-404/requeue", nil); code != http.StatusNotFound {
		t.Fatalf("requeue of unknown job = HTTP %d, want 404", code)
	}
	if code := callJSON(t, http.MethodPost, ts.URL+"/v1/jobs/"+fresh.ID+"/requeue", nil); code != http.StatusConflict {
		t.Fatalf("requeue of done job = HTTP %d, want 409", code)
	}

	// Clean restart: quarantine is a durable promise, not recovery-local
	// state — diagnostics and attempt count survive.
	if err := eng.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	tr2 := obs.New()
	ps2, err := OpenStore(dir, StoreOptions{Tracer: tr2})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(ps2.Recovered()); got != 0 {
		t.Fatalf("clean restart recovered %d jobs, want 0", got)
	}
	st2 := ps2.Status(ps2.Get(poisonID))
	if st2.State != StateQuarantined || st2.Attempts != DefaultMaxAttempts || st2.Error != st.Error {
		t.Fatalf("quarantine did not survive restart: %+v", st2)
	}

	// The fix ships; an operator requeue revives the job with a fresh
	// attempt budget and it finally finishes.
	healed.Store(true)
	eng2 := New(Config{Workers: 2, QueueDepth: 8, JobTimeout: 30 * time.Second, Store: ps2, Tracer: tr2})
	eng2.route = script
	eng2.Start()
	ts2 := httptest.NewServer(eng2.Handler())
	defer ts2.Close()
	var rst Status
	if code := callJSON(t, http.MethodPost, ts2.URL+"/v1/jobs/"+poisonID+"/requeue", &rst); code != http.StatusOK {
		t.Fatalf("requeue healed job = HTTP %d, want 200", code)
	}
	if rst.State.Terminal() {
		t.Fatalf("requeued job still terminal: %+v", rst)
	}
	if fin := waitTerminal(t, ts2.URL, poisonID); fin.State != StateDone {
		t.Fatalf("requeued job = %s (%s), want done", fin.State, fin.Error)
	}
	var rep obs.RunReport
	if code := callJSON(t, http.MethodGet, ts2.URL+"/v1/jobs/"+poisonID+"/result", &rep); code != http.StatusOK {
		t.Fatalf("result of requeued job = HTTP %d, want 200", code)
	}
	if rep.Tool != "poison" {
		t.Fatalf("requeued job report = %q, want the poison board's run", rep.Tool)
	}
	final, _ := eng2.Job(poisonID)
	if final.State != StateDone || final.Attempts != 1 {
		t.Fatalf("requeued job = %s attempts=%d, want done after 1 fresh attempt", final.State, final.Attempts)
	}
	mresp, err := http.Get(ts2.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(mresp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Counters[obs.MJobsRequeued] != 1 {
		t.Fatalf("/metrics %s = %d, want 1", obs.MJobsRequeued, m.Counters[obs.MJobsRequeued])
	}
	if err := eng2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := ps2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryMixedBacklog pins recovery triage over every job class at
// once: terminal jobs keep their outcomes, runnable jobs re-queue in
// acceptance order, and only the job that exhausted its attempt budget is
// quarantined.
func TestRecoveryMixedBacklog(t *testing.T) {
	dir := t.TempDir()
	doc := encodeBoardDoc(t)
	ps, err := OpenStore(dir, StoreOptions{MaxAttempts: 2})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(key string) *Job {
		j, _, err := ps.Create(specFor(t, doc, key), time.Now())
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	done, failed, poison, crashed, queued := mk("done"), mk("failed"), mk("poison"), mk("crashed"), mk("queued")

	ps.SetRunning(done, nil, time.Now())
	ps.Finish(done, &obs.RunReport{Tool: "ok"}, nil, time.Now())
	ps.SetRunning(failed, nil, time.Now())
	ps.Finish(failed, nil, errors.New("solver exploded"), time.Now())
	// Two starts without a finish: the poison shape at MaxAttempts=2.
	ps.SetRunning(poison, nil, time.Now())
	ps.SetRunning(poison, nil, time.Now())
	// One start: unlucky, still within budget.
	ps.SetRunning(crashed, nil, time.Now())
	// queued never starts.

	ps.Kill()
	ps.Close()

	ps2, err := OpenStore(dir, StoreOptions{MaxAttempts: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ps2.Close()

	rec := ps2.Recovered()
	if len(rec) != 2 || rec[0].ID() != crashed.ID() || rec[1].ID() != queued.ID() {
		ids := make([]string, len(rec))
		for i, j := range rec {
			ids[i] = j.ID()
		}
		t.Fatalf("recovered %v, want [%s %s] in acceptance order", ids, crashed.ID(), queued.ID())
	}
	q := ps2.Quarantined()
	if len(q) != 1 || q[0].ID() != poison.ID() {
		t.Fatalf("quarantined %d jobs, want exactly the out-of-budget one", len(q))
	}
	want := map[string]JobState{
		done.ID():    StateDone,
		failed.ID():  StateFailed,
		poison.ID():  StateQuarantined,
		crashed.ID(): StateQueued,
		queued.ID():  StateQueued,
	}
	for id, ws := range want {
		st := ps2.Status(ps2.Get(id))
		if st.State != ws {
			t.Errorf("job %s = %s, want %s", id, st.State, ws)
		}
	}
	if st := ps2.Status(ps2.Get(failed.ID())); !strings.Contains(st.Error, "solver exploded") {
		t.Errorf("failed job lost its diagnostics: %q", st.Error)
	}
	if rep, _ := ps2.Result(ps2.Get(done.ID())); rep == nil || rep.Tool != "ok" {
		t.Errorf("done job lost its report across the crash")
	}
	// The full listing is in acceptance order with every class present.
	list := ps2.List("")
	if len(list) != 5 {
		t.Fatalf("listed %d jobs, want 5", len(list))
	}
	order := []string{done.ID(), failed.ID(), poison.ID(), crashed.ID(), queued.ID()}
	for i, st := range list {
		if st.ID != order[i] {
			t.Fatalf("list[%d] = %s, want %s (acceptance order)", i, st.ID, order[i])
		}
	}
}

// TestRequeueSurvivesRestart pins the durability of the operator requeue:
// the revival (and the attempt-budget reset it grants) must hold across a
// SIGKILL that lands right after it, and the job's exploration checkpoint
// must ride along so the revived job resumes instead of restarting.
func TestRequeueSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	doc := encodeBoardDoc(t)
	frame := []byte("opaque-checkpoint-frame")

	ps, err := OpenStore(dir, StoreOptions{MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := ps.Create(specFor(t, doc, "rq"), time.Now())
	if err != nil {
		t.Fatal(err)
	}
	ps.SetRunning(j, nil, time.Now())
	if err := ps.SaveCheckpoint(j, frame); err != nil {
		t.Fatal(err)
	}
	ps.Kill()
	ps.Close()

	// One start against a budget of one: recovery quarantines.
	ps2, err := OpenStore(dir, StoreOptions{MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	j2 := ps2.Get(j.ID())
	if st := ps2.Status(j2); st.State != StateQuarantined || st.Attempts != 1 {
		t.Fatalf("after crash: %+v, want quarantined with 1 attempt", st)
	}
	if string(ps2.Checkpoint(j2)) != string(frame) {
		t.Fatal("checkpoint did not survive into quarantine")
	}
	if err := ps2.Requeue(j2, time.Now()); err != nil {
		t.Fatal(err)
	}
	if st := ps2.Status(j2); st.State != StateQueued || st.Attempts != 0 || st.Error != "" {
		t.Fatalf("after requeue: %+v, want queued with a fresh budget", st)
	}
	// The process dies immediately after the requeue: the fsynced requeue
	// record must still revive the job at the next recovery.
	ps2.Kill()
	ps2.Close()

	ps3, err := OpenStore(dir, StoreOptions{MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ps3.Close()
	rec := ps3.Recovered()
	if len(rec) != 1 || rec[0].ID() != j.ID() {
		t.Fatalf("recovered %d jobs after requeue+kill, want the revived job", len(rec))
	}
	j3 := ps3.Get(j.ID())
	if st := ps3.Status(j3); st.State != StateQueued || st.Attempts != 0 {
		t.Fatalf("revived job after restart: %+v", st)
	}
	if string(ps3.Checkpoint(j3)) != string(frame) {
		t.Fatal("checkpoint lost across requeue and restart")
	}
}
