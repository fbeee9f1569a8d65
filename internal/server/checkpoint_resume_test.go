package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"sprout"
	"sprout/internal/board"
	"sprout/internal/boardio"
	"sprout/internal/faultinject"
	"sprout/internal/geom"
	"sprout/internal/obs"
)

// exploreBoardDoc builds a routable three-rail board (six net orders, so
// a CheckpointEvery of 2 yields mid-sweep checkpoints) encoded as the
// JSON document the HTTP API accepts.
func exploreBoardDoc(t testing.TB) []byte {
	t.Helper()
	stack := board.Stackup{Layers: []board.Layer{
		{Name: "L1", CopperUM: 35, DielectricBelowUM: 100},
		{Name: "L2", CopperUM: 35, IsPlane: true},
	}}
	rules := board.DesignRules{Clearance: 2, ViaCost: 5}
	b, err := board.New("explore3", geom.R(0, 0, 200, 120), stack, rules)
	if err != nil {
		t.Fatal(err)
	}
	budgets := map[board.NetID]int64{}
	for i, y := range []int64{10, 50, 90} {
		net := b.AddNet([]string{"VDD", "VIO", "VAUX"}[i], 2, 5)
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

// submitExplore runs the engine's real submit path for an exploration job.
func submitExplore(t *testing.T, eng *Engine, doc []byte, key string) string {
	t.Helper()
	dec, err := boardio.Decode(bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	st, err := eng.Submit(dec, SubmitOptions{IdempotencyKey: key, Explore: true})
	if err != nil {
		t.Fatal(err)
	}
	return st.ID
}

// TestChaosCheckpointResume is the durable-checkpoint half of the
// self-healing suite, run end to end with the real explorer: a replica is
// killed mid-sweep right after its first checkpoint hits the WAL, the
// directory is reopened, and the recovered job must resume from the
// checkpoint — finishing with results bit-identical to an uninterrupted
// sweep while routing strictly fewer rails.
func TestChaosCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	doc := exploreBoardDoc(t)

	tr := obs.New()
	ps, err := OpenStore(dir, StoreOptions{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	eng := New(Config{Workers: 1, QueueDepth: 4, JobTimeout: 60 * time.Second,
		CheckpointEvery: 2, Store: ps, Tracer: tr})
	// The kill switch rides the checkpoint sink: the instant the first
	// frame is durable, the disk dies and the sweep's context is cut —
	// the tightest possible crash after a checkpoint.
	origExplore := eng.explore
	eng.explore = func(ctx context.Context, dec *boardio.Decoded, opt sprout.RouteOptions) (*sprout.OrderExploration, error) {
		kctx, kill := context.WithCancel(ctx)
		defer kill()
		inner := opt.ExploreCheckpointSink
		opt.ExploreCheckpointSink = func(ck *sprout.ExploreCheckpoint) error {
			err := inner(ck)
			ps.Kill()
			kill()
			return err
		}
		return origExplore(kctx, dec, opt)
	}
	eng.Start()
	id := submitExplore(t, eng, doc, "ckpt-chaos")
	waitFor(t, "sweep to die at its first checkpoint", func() bool {
		st, ok := eng.Job(id)
		return ok && st.State.Terminal()
	})
	counters, _ := tr.MetricsSnapshot()
	if counters[obs.MWALCkptWrites] < 1 {
		t.Fatalf("%s = %d, want >= 1 before the crash", obs.MWALCkptWrites, counters[obs.MWALCkptWrites])
	}
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	_ = eng.Shutdown(dead)
	ps.Close()

	// Restart: the job recovers with its checkpoint and must resume.
	tr2 := obs.New()
	ps2, err := OpenStore(dir, StoreOptions{Tracer: tr2})
	if err != nil {
		t.Fatalf("reopen after kill: %v", err)
	}
	if got := len(ps2.Recovered()); got != 1 {
		t.Fatalf("recovered %d jobs, want 1", got)
	}
	if len(ps2.Checkpoint(ps2.Get(id))) == 0 {
		t.Fatal("checkpoint frame did not survive the crash")
	}
	eng2 := New(Config{Workers: 1, QueueDepth: 4, JobTimeout: 60 * time.Second,
		CheckpointEvery: 2, Store: ps2, Tracer: tr2})
	eng2.Start()
	waitFor(t, "recovered sweep to finish", func() bool {
		st, ok := eng2.Job(id)
		return ok && st.State.Terminal()
	})
	resumed, _ := eng2.Job(id)
	if resumed.State != StateDone {
		t.Fatalf("recovered job = %s (%s), want done", resumed.State, resumed.Error)
	}
	if resumed.Attempts != 2 {
		t.Fatalf("recovered job attempts = %d, want 2", resumed.Attempts)
	}
	if resumed.Exploration == nil {
		t.Fatal("recovered exploration job carries no sweep digest")
	}
	counters2, _ := tr2.MetricsSnapshot()
	if counters2[obs.MCkptResumes] != 1 {
		t.Fatalf("%s = %d, want 1", obs.MCkptResumes, counters2[obs.MCkptResumes])
	}
	if counters2[obs.MExploreCkptOrders] < 2 {
		t.Fatalf("%s = %d, want >= 2 (checkpoint every 2)", obs.MExploreCkptOrders, counters2[obs.MExploreCkptOrders])
	}
	if err := eng2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := ps2.Close(); err != nil {
		t.Fatal(err)
	}

	// Baseline: the same document swept uninterrupted on a fresh engine.
	tr3 := obs.New()
	eng3 := New(Config{Workers: 1, QueueDepth: 4, JobTimeout: 60 * time.Second, Tracer: tr3})
	eng3.Start()
	baseID := submitExplore(t, eng3, doc, "ckpt-baseline")
	waitFor(t, "baseline sweep to finish", func() bool {
		st, ok := eng3.Job(baseID)
		return ok && st.State.Terminal()
	})
	baseline, _ := eng3.Job(baseID)
	if baseline.State != StateDone || baseline.Exploration == nil {
		t.Fatalf("baseline sweep = %s (%s)", baseline.State, baseline.Error)
	}
	if err := eng3.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Bit-identical selection: same winner, same score, same sweep shape.
	re, be := resumed.Exploration, baseline.Exploration
	if !reflect.DeepEqual(re.BestOrder, be.BestOrder) {
		t.Fatalf("resumed best order %v != uninterrupted %v", re.BestOrder, be.BestOrder)
	}
	if re.BestScore != be.BestScore {
		t.Fatalf("resumed best score %v != uninterrupted %v", re.BestScore, be.BestScore)
	}
	if re.OrdersTried != be.OrdersTried || re.OrdersFailed != be.OrdersFailed {
		t.Fatalf("resumed sweep shape %d/%d != uninterrupted %d/%d",
			re.OrdersTried, re.OrdersFailed, be.OrdersTried, be.OrdersFailed)
	}
	// Strictly fewer rail routes: the replayed prefix cost nothing.
	if re.PrefixMisses >= be.PrefixMisses {
		t.Fatalf("resumed sweep routed %d rails, uninterrupted routed %d — the checkpoint saved no work",
			re.PrefixMisses, be.PrefixMisses)
	}
	t.Logf("checkpoint resume: %d rail routes vs %d uninterrupted (best order %v, score %.6g)",
		re.PrefixMisses, be.PrefixMisses, re.BestOrder, re.BestScore)
}

// TestSaveCheckpointFaultInjection pins the non-fatal contract of the
// checkpoint persist path: an injected write fault surfaces as an error
// plus a counter, stores nothing, and a later healthy persist succeeds.
func TestSaveCheckpointFaultInjection(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	tr := obs.New()
	ps, err := OpenStore(t.TempDir(), StoreOptions{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	j, _, err := ps.Create(specFor(t, encodeBoardDoc(t), "ck"), time.Now())
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk on fire")
	faultinject.Arm(faultinject.SiteCkptWrite, 1, func() error { return boom })
	if err := ps.SaveCheckpoint(j, []byte("frame-1")); !errors.Is(err, boom) {
		t.Fatalf("armed SaveCheckpoint: %v, want %v", err, boom)
	}
	if ps.Checkpoint(j) != nil {
		t.Fatal("failed persist left a checkpoint behind")
	}
	counters, _ := tr.MetricsSnapshot()
	if counters[obs.MWALCkptWriteErrors] != 1 {
		t.Fatalf("%s = %d, want 1", obs.MWALCkptWriteErrors, counters[obs.MWALCkptWriteErrors])
	}
	if err := ps.SaveCheckpoint(j, []byte("frame-2")); err != nil {
		t.Fatalf("disarmed SaveCheckpoint: %v", err)
	}
	if string(ps.Checkpoint(j)) != "frame-2" {
		t.Fatal("healthy persist after a fault did not stick")
	}
}

// TestCompactionSurvivesSyncFaults drives the two durability barriers the
// snapshot+compaction pass crosses — the directory fsync after the
// snapshot rename, and the fsync of the truncated WAL — through injected
// failures. Either fault must degrade to "compaction skipped, WAL keeps
// the state": reopening the directory recovers every job.
func TestCompactionSurvivesSyncFaults(t *testing.T) {
	for name, site := range map[string]string{
		"dir_fsync_after_rename": faultinject.SiteDirSync,
		"wal_truncate_fsync":     faultinject.SiteWALSync,
	} {
		t.Run(name, func(t *testing.T) {
			faultinject.Reset()
			defer faultinject.Reset()
			dir := t.TempDir()
			doc := encodeBoardDoc(t)
			ps, err := OpenStore(dir, StoreOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				j, _, err := ps.Create(specFor(t, doc, fmt.Sprintf("sf-%d", i)), time.Now())
				if err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					ps.SetRunning(j, nil, time.Now())
				}
			}
			// The close-time compaction hits the armed barrier and must fail
			// soft: the WAL still holds every record.
			faultinject.Arm(site, 1, func() error { return errors.New("power loss at the barrier") })
			ps.Close()
			faultinject.Reset()

			ps2, err := OpenStore(dir, StoreOptions{})
			if err != nil {
				t.Fatalf("reopen after %s fault: %v", name, err)
			}
			defer ps2.Close()
			if got := len(ps2.Recovered()); got != 2 {
				t.Fatalf("recovered %d jobs after %s fault, want 2", got, name)
			}
			if st := ps2.Status(ps2.Recovered()[0]); st.Attempts != 1 {
				t.Fatalf("first job attempts = %d across the fault, want 1", st.Attempts)
			}
		})
	}
}
