package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"sprout"
	"sprout/internal/board"
	"sprout/internal/obs"
	"sprout/internal/sparse"
)

// TestReplayMatchesLiveTransitions scripts a store through every WAL
// record type — accept, attempt, checkpoint, finish (done and failed
// with each error kind), quarantine, requeue and drop — and reopens it
// twice: once from the WAL alone, as a crash leaves it, and once from the
// snapshot Close writes. Both reopened stores must report the status,
// checkpoint and run report the live store holds for every terminal or
// quarantined job, and a dropped job must stay gone.
func TestReplayMatchesLiveTransitions(t *testing.T) {
	dir := t.TempDir()
	doc := encodeBoardDoc(t)
	st, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The first job runs on the real clock, the rest on fixed ticks. The
	// store keeps wall-clock time only, so the status durations of both
	// must match exactly after the JSON round trip.
	base := time.Date(2024, 1, 2, 3, 4, 5, 0, time.UTC)
	tick := 0
	ticks := func() time.Time {
		tick++
		return base.Add(time.Duration(tick) * time.Millisecond)
	}
	now := time.Now
	create := func(key string) *Job {
		t.Helper()
		j, _, err := st.Create(specFor(t, doc, key), now())
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	// start runs a job and stores a checkpoint frame, so each terminal
	// transition below has a frame to clear.
	start := func(j *Job, frame string) {
		t.Helper()
		if _, _, _, ok := st.SetRunning(j, obs.New(), now()); !ok {
			t.Fatalf("%s did not start", j.ID())
		}
		if err := st.SaveCheckpoint(j, []byte(frame)); err != nil {
			t.Fatal(err)
		}
	}

	var kept []*Job // terminal or quarantined: compared after reopening

	done := create("done")
	start(done, "done-frame")
	if !st.Finish(done, &obs.RunReport{Tool: "replay-done"}, nil, now()) {
		t.Fatal("finish of done job was not the terminal transition")
	}
	kept = append(kept, done)
	now = ticks

	explored := create("explored")
	start(explored, "explored-frame")
	st.NoteExploration(explored, &sprout.OrderExploration{
		BestOrder: []board.NetID{2, 0, 1}, BestScore: 1.5, Tried: 6,
		Stats: sprout.ExploreStats{PrefixHits: 4, PrefixMisses: 11},
	})
	st.Finish(explored, &obs.RunReport{Tool: "replay-explore"}, nil, now())
	kept = append(kept, explored)

	failures := []struct {
		err  error
		want ErrKind
	}{
		{fmt.Errorf("route: %w", context.DeadlineExceeded), KindDeadline},
		{sprout.ErrShuttingDown, KindShutdown},
		{&sprout.PanicError{Value: "boom"}, KindPanic},
		{&sparse.SolveError{Err: errors.New("diverged")}, KindSolve},
		{errors.New("no route"), KindInternal},
	}
	for _, f := range failures {
		j := create("failed-" + string(f.want))
		start(j, "failed-frame")
		st.Finish(j, nil, f.err, now())
		if got := st.Status(j).ErrorKind; got != f.want {
			t.Fatalf("live failure %v classified %q, want %q", f.err, got, f.want)
		}
		kept = append(kept, j)
	}

	parked := create("quarantined")
	start(parked, "parked-frame")
	if !st.Quarantine(parked, "poisoned board", now()) {
		t.Fatal("quarantine was refused")
	}
	kept = append(kept, parked)

	revived := create("requeued")
	start(revived, "revived-frame-1")
	st.Quarantine(revived, "poisoned board", now())
	if err := st.Requeue(revived, now()); err != nil {
		t.Fatal(err)
	}
	start(revived, "revived-frame-2")
	st.Finish(revived, &obs.RunReport{Tool: "replay-requeued"}, nil, now())
	kept = append(kept, revived)

	dropped := create("dropped")
	st.Drop(dropped)

	type outcome struct {
		Status     Status
		Checkpoint []byte
		Report     []byte
	}
	capture := func(s *Store, j *Job) outcome {
		t.Helper()
		rep, _ := s.Result(j)
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return outcome{Status: s.Status(j), Checkpoint: s.Checkpoint(j), Report: b}
	}
	live := map[string]outcome{}
	for _, j := range kept {
		live[j.ID()] = capture(st, j)
	}
	if live[parked.ID()].Checkpoint == nil {
		t.Fatal("live quarantine dropped the checkpoint a requeue resumes from")
	}

	// The WAL as a crash would leave it: copied before Close folds it
	// into the snapshot.
	walDir := t.TempDir()
	for _, name := range []string{walFileName, snapFileName} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(walDir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	for name, from := range map[string]string{"wal": walDir, "snapshot": dir} {
		t.Run(name, func(t *testing.T) {
			re, err := OpenStore(from, StoreOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			for _, j := range kept {
				rj := re.Get(j.ID())
				if rj == nil {
					t.Fatalf("%s lost on reopen", j.ID())
				}
				got, want := capture(re, rj), live[j.ID()]
				if !reflect.DeepEqual(got.Status, want.Status) {
					t.Errorf("%s status = %+v, live %+v", j.ID(), got.Status, want.Status)
				}
				if !bytes.Equal(got.Checkpoint, want.Checkpoint) {
					t.Errorf("%s checkpoint = %q, live %q", j.ID(), got.Checkpoint, want.Checkpoint)
				}
				if !bytes.Equal(got.Report, want.Report) {
					t.Errorf("%s report = %s, live %s", j.ID(), got.Report, want.Report)
				}
			}
			if re.Get(dropped.ID()) != nil {
				t.Errorf("dropped %s came back on reopen", dropped.ID())
			}
			if n := len(re.Recovered()); n != 0 {
				t.Errorf("recovered %d jobs, want 0", n)
			}

			// Opening compacted the replayed table: no terminal row of the
			// snapshot it wrote may carry a checkpoint.
			data, err := os.ReadFile(filepath.Join(from, snapFileName))
			if err != nil {
				t.Fatal(err)
			}
			var snap storeSnap
			if err := json.Unmarshal(data, &snap); err != nil {
				t.Fatal(err)
			}
			for _, row := range snap.Jobs {
				if (row.State == StateDone || row.State == StateFailed) && len(row.Checkpoint) > 0 {
					t.Errorf("snapshot row %s (%s) carries checkpoint %q", row.Accept.ID, row.State, row.Checkpoint)
				}
			}
		})
	}
}

// TestStoreKeepsWallClockTimes drives jobs on time.Now() and checks that
// no time the store keeps carries a monotonic reading. The WAL and the
// snapshot keep wall-clock time only, so a status duration computed from
// monotonic readings would change when the job is reloaded.
func TestStoreKeepsWallClockTimes(t *testing.T) {
	st, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	doc := encodeBoardDoc(t)
	wallOnly := func(what string, ts time.Time) {
		t.Helper()
		if strings.Contains(ts.String(), "m=") {
			t.Errorf("%s time %s carries a monotonic reading", what, ts)
		}
	}

	j, _, err := st.Create(specFor(t, doc, "run"), time.Now())
	if err != nil {
		t.Fatal(err)
	}
	wallOnly("submitted", j.submitted)
	if _, _, _, ok := st.SetRunning(j, obs.New(), time.Now()); !ok {
		t.Fatal("job did not start")
	}
	wallOnly("started", j.started)
	st.Finish(j, &obs.RunReport{Tool: "wall-clock"}, nil, time.Now())
	wallOnly("finished", j.finished)

	parked, _, err := st.Create(specFor(t, doc, "parked"), time.Now())
	if err != nil {
		t.Fatal(err)
	}
	st.Quarantine(parked, "poisoned board", time.Now())
	wallOnly("quarantined", parked.finished)
}
