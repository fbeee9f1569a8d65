package sprout_test

// Checkpoint-resume equivalence: a sweep resumed from a durable
// checkpoint must be bit-identical to the uninterrupted sweep — same
// winner, same per-order scores and failures, same rail polygons and
// resistances — while routing strictly fewer rails (the resumed prefix
// is replayed, not re-routed). Frames round-trip through the real
// Encode/Decode framing so the test covers what the server persists.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"reflect"
	"slices"
	"testing"

	"sprout"
	"sprout/internal/board"
	"sprout/internal/cases"
	"sprout/internal/geom"
	"sprout/internal/obs"
)

// threeRailExploreOpt is the shared sweep configuration: three nets, six
// lexicographic orders, checkpoint every second settled order.
func threeRailExploreOpt(t *testing.T) (*sprout.Board, sprout.RouteOptions) {
	t.Helper()
	cs, err := cases.ThreeRail(cases.Table4()[0])
	if err != nil {
		t.Fatal(err)
	}
	return cs.Board, sprout.RouteOptions{
		Layer:                  cs.RoutingLayer,
		Budgets:                cs.Budgets,
		Config:                 cs.Config,
		ExploreCheckpointEvery: 2,
	}
}

// captureCheckpoints runs a sweep whose sink frames every checkpoint
// through the real encoder, returning the decoded frames in emission
// order alongside the sweep result.
func captureCheckpoints(t *testing.T, b *sprout.Board, opt sprout.RouteOptions) (*sprout.OrderExploration, []*sprout.ExploreCheckpoint) {
	t.Helper()
	var cks []*sprout.ExploreCheckpoint
	opt.ExploreCheckpointSink = func(ck *sprout.ExploreCheckpoint) error {
		frame, err := sprout.EncodeCheckpoint(ck)
		if err != nil {
			t.Errorf("sink encode: %v", err)
			return err
		}
		decoded, err := sprout.DecodeCheckpoint(frame)
		if err != nil {
			t.Errorf("sink decode: %v", err)
			return err
		}
		cks = append(cks, decoded)
		return nil
	}
	out, err := sprout.ExploreNetOrders(b, opt)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	return out, cks
}

// TestResumeFromCheckpointMatchesFull resumes every Table IV row from
// each of its checkpoints. On some rows the winner settled before the
// checkpoint, so the resume routes its board again, without the rail
// memo.
func TestResumeFromCheckpointMatchesFull(t *testing.T) {
	rerouted := 0
	for _, row := range cases.Table4() {
		b, opt := table4Opt(t, row)
		opt.ExploreCheckpointEvery = 2
		full, cks := captureCheckpoints(t, b, opt)
		// Six orders, checkpoint every 2, final emission skipped: 2 and 4.
		if len(cks) != 2 {
			t.Fatalf("layout %d: captured %d checkpoints, want 2", row.Layout, len(cks))
		}
		for i, want := range []int{2, 4} {
			if cks[i].Done != want {
				t.Fatalf("layout %d: checkpoint %d settled %d orders, want %d", row.Layout, i, cks[i].Done, want)
			}
		}
		best := slices.IndexFunc(full.Evaluated, func(s sprout.OrderScore) bool {
			return slices.Equal(s.Order, full.BestOrder)
		})
		for _, ck := range cks {
			resumeOpt := opt
			resumeOpt.ExploreResume = ck
			resumed, err := sprout.ExploreNetOrders(b, resumeOpt)
			if err != nil {
				t.Fatalf("layout %d resume at %d: %v", row.Layout, ck.Done, err)
			}
			sameExploration(t, full, resumed)
			if resumed.Stats.ResumedOrders != ck.Done {
				t.Fatalf("layout %d resume at %d: ResumedOrders = %d", row.Layout, ck.Done, resumed.Stats.ResumedOrders)
			}
			// The replayed prefix must not route: strictly fewer real rail
			// routes than the uninterrupted sweep performed.
			if resumed.Stats.PrefixMisses >= full.Stats.PrefixMisses {
				t.Fatalf("layout %d resume at %d routed %d rails, uninterrupted sweep routed %d — no work was saved",
					row.Layout, ck.Done, resumed.Stats.PrefixMisses, full.Stats.PrefixMisses)
			}
			if best < ck.Done {
				rerouted++
			}
		}
	}
	if rerouted == 0 {
		t.Fatal("no resume re-routed a settled winner")
	}
}

func TestResumeFromCheckpointAfterCancel(t *testing.T) {
	b, opt := threeRailExploreOpt(t)
	full, _ := captureCheckpoints(t, b, opt)

	// Interrupted sweep: cancel as soon as the first checkpoint lands, as
	// a crash mid-sweep would. The checkpoint survives; the rest of the
	// run dies with the context.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var last *sprout.ExploreCheckpoint
	interrupted := opt
	interrupted.ExploreCheckpointSink = func(ck *sprout.ExploreCheckpoint) error {
		frame, err := sprout.EncodeCheckpoint(ck)
		if err != nil {
			return err
		}
		if last, err = sprout.DecodeCheckpoint(frame); err != nil {
			return err
		}
		cancel()
		return nil
	}
	if _, err := sprout.ExploreNetOrdersCtx(ctx, b, interrupted); err == nil {
		t.Fatal("cancelled sweep must return the context error")
	}
	if last == nil {
		t.Fatal("no checkpoint escaped the interrupted sweep")
	}

	resumeOpt := opt
	resumeOpt.ExploreResume = last
	resumed, err := sprout.ExploreNetOrders(b, resumeOpt)
	if err != nil {
		t.Fatalf("resume after cancel: %v", err)
	}
	sameExploration(t, full, resumed)
}

func TestResumeFromCheckpointRejectsMismatch(t *testing.T) {
	b, opt := threeRailExploreOpt(t)
	_, cks := captureCheckpoints(t, b, opt)
	if len(cks) == 0 {
		t.Fatal("no checkpoints captured")
	}

	// Change a budget: the fingerprint moves, the stale checkpoint must be
	// rejected, and the sweep must come out identical to a fresh one.
	changed := opt
	changed.Budgets = map[sprout.NetID]int64{}
	for id, v := range opt.Budgets {
		changed.Budgets[id] = v + 64
	}
	fresh, err := sprout.ExploreNetOrders(b, changed)
	if err != nil {
		t.Fatalf("fresh sweep: %v", err)
	}
	stale := changed
	stale.ExploreResume = cks[len(cks)-1]
	resumed, err := sprout.ExploreNetOrders(b, stale)
	if err != nil {
		t.Fatalf("sweep with stale checkpoint: %v", err)
	}
	if resumed.Stats.ResumedOrders != 0 {
		t.Fatalf("stale checkpoint resumed %d orders, want rejection", resumed.Stats.ResumedOrders)
	}
	sameExploration(t, fresh, resumed)
}

// TestResumeFromCheckpointRejectsOtherBoard: a checkpoint is bound to its
// board's content, not its name. Resuming a checkpoint on the same board
// plus one keepout across the CPU rail's corridor must reject it and sweep
// afresh, never replay the other board's scores.
func TestResumeFromCheckpointRejectsOtherBoard(t *testing.T) {
	b, opt := threeRailExploreOpt(t)
	_, cks := captureCheckpoints(t, b, opt)
	if len(cks) == 0 || cks[0].Done != 2 {
		t.Fatalf("want a first checkpoint at 2 settled orders, got %d checkpoints", len(cks))
	}
	if err := b.AddObstacle(board.NetNone, opt.Layer, geom.RegionFromRect(geom.R(140, 40, 160, 60))); err != nil {
		t.Fatal(err)
	}
	fresh, err := sprout.ExploreNetOrders(b, opt)
	if err != nil {
		t.Fatalf("fresh sweep: %v", err)
	}
	tr := obs.New()
	resumeOpt := opt
	resumeOpt.ExploreResume = cks[0]
	resumed, err := sprout.ExploreNetOrdersCtx(obs.WithTracer(context.Background(), tr), b, resumeOpt)
	if err != nil {
		t.Fatalf("sweep with the other board's checkpoint: %v", err)
	}
	if resumed.Stats.ResumedOrders != 0 {
		t.Fatalf("other board's checkpoint resumed %d orders, want rejection", resumed.Stats.ResumedOrders)
	}
	if counters, _ := tr.MetricsSnapshot(); counters[obs.MExploreCkptRejected] != 1 {
		t.Fatalf("%s = %d, want 1", obs.MExploreCkptRejected, counters[obs.MExploreCkptRejected])
	}
	sameExploration(t, fresh, resumed)
}

// legacyBest is a "best" object in the shape frames carried while a
// checkpoint also serialized the winner's routed snapshot: per-rail
// route, extraction, manual baseline and solver telemetry plus the
// claimed copper.
const legacyBest = `{"rails":[{"net":0,"name":"MODEM","budget":2200,` +
	`"route":{"shape":[{"X0":0,"Y0":0,"X1":10,"Y1":10}],"resistance":0.125,` +
	`"pair_resistance":[0.125],"trace":[{"Stage":"seed","Nodes":4,"Area":100,"Resistance":0.125,"Elapsed":1500}],` +
	`"solve":{"Solves":3,"Iterations":40}},` +
	`"extract":{"Nodes":12,"ResistanceOhms":0.25},` +
	`"manual":{"shape":[{"X0":0,"Y0":0,"X1":4,"Y1":10}],"width":4},` +
	`"solve":{"Solves":3,"Iterations":40}}],` +
	`"sprout_copper":[{"X0":0,"Y0":0,"X1":10,"Y1":10}],` +
	`"manual_copper":[{"X0":0,"Y0":0,"X1":4,"Y1":10}]}`

// legacyFrame re-frames ck's payload with a legacy "best" object spliced
// in, exactly as a frame on disk from before the snapshot was dropped.
func legacyFrame(t *testing.T, ck *sprout.ExploreCheckpoint) []byte {
	t.Helper()
	payload, err := json.Marshal(ck)
	if err != nil {
		t.Fatal(err)
	}
	payload = append(bytes.TrimSuffix(payload, []byte("}")), `,"best":`+legacyBest+`}`...)
	frame := make([]byte, 16, 16+len(payload))
	copy(frame, "SPK1")
	binary.LittleEndian.PutUint32(frame[4:8], 1)
	binary.LittleEndian.PutUint32(frame[8:12], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[12:16], crc32.ChecksumIEEE(payload))
	return append(frame, payload...)
}

// TestResumeFromLegacyFrameWithBest: a frame written while checkpoints
// still carried the winner's routed snapshot must decode (the retired
// key is ignored) and resume to the uninterrupted sweep, the settled
// winner re-routed in full.
func TestResumeFromLegacyFrameWithBest(t *testing.T) {
	b, opt := threeRailExploreOpt(t)
	full, cks := captureCheckpoints(t, b, opt)
	if len(cks) == 0 {
		t.Fatal("no checkpoints captured")
	}
	ck := cks[0]
	if ck.BestIndex < 0 {
		t.Fatalf("checkpoint at %d has no settled winner", ck.Done)
	}
	frame := legacyFrame(t, ck)
	if !bytes.Contains(frame, []byte(`"best":{"rails"`)) {
		t.Fatal("legacy frame lost its best object")
	}
	decoded, err := sprout.DecodeCheckpoint(frame)
	if err != nil {
		t.Fatalf("legacy frame rejected: %v", err)
	}
	if !reflect.DeepEqual(decoded, ck) {
		t.Fatalf("legacy frame decoded to\n %+v\nwant\n %+v", decoded, ck)
	}
	resumeOpt := opt
	resumeOpt.ExploreResume = decoded
	resumed, err := sprout.ExploreNetOrders(b, resumeOpt)
	if err != nil {
		t.Fatalf("resume from legacy frame: %v", err)
	}
	if resumed.Stats.ResumedOrders != ck.Done {
		t.Fatalf("legacy frame resumed %d orders, want %d", resumed.Stats.ResumedOrders, ck.Done)
	}
	sameExploration(t, full, resumed)
}
