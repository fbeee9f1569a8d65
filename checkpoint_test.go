package sprout

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"sprout/internal/board"
	"sprout/internal/faultinject"
	"sprout/internal/geom"
)

// sampleCheckpoint is a frontier with every field class populated: a
// winner, a failure, and plain scored orders.
func sampleCheckpoint() *ExploreCheckpoint {
	return &ExploreCheckpoint{
		OrdersHash: "abc123",
		Orders:     6,
		Done:       3,
		Settled: []CheckpointOrder{
			{Index: 0, Score: 2.25},
			{Index: 1, Failed: true, Err: "route: net stranded", Kind: "route", FailedNet: 1},
			{Index: 2, Score: 1.5},
		},
		BestIndex: 2,
		BestScore: 1.5,
	}
}

func TestCheckpointFrameRoundTrip(t *testing.T) {
	for name, ck := range map[string]*ExploreCheckpoint{
		"with_best": sampleCheckpoint(),
		"all_failed": {
			OrdersHash: "def456", Orders: 2, Done: 1,
			Settled:   []CheckpointOrder{{Index: 0, Failed: true, Err: "boom", Kind: "route"}},
			BestIndex: -1,
		},
	} {
		frame, err := EncodeCheckpoint(ck)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		got, err := DecodeCheckpoint(frame)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(ck, got) {
			t.Fatalf("%s: round trip diverged:\n want %+v\n got  %+v", name, ck, got)
		}
	}
}

func TestCheckpointDecodeRejectsDamage(t *testing.T) {
	frame, err := EncodeCheckpoint(sampleCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	mutate := map[string]func([]byte) []byte{
		"empty":     func(f []byte) []byte { return nil },
		"truncated": func(f []byte) []byte { return f[:len(f)/2] },
		"torn_tail": func(f []byte) []byte { return f[:len(f)-1] },
		"magic": func(f []byte) []byte {
			f[0] ^= 0xff
			return f
		},
		"version": func(f []byte) []byte {
			binary.LittleEndian.PutUint32(f[4:8], 99)
			return f
		},
		"length": func(f []byte) []byte {
			binary.LittleEndian.PutUint32(f[8:12], uint32(len(f)))
			return f
		},
		"payload_bit_rot": func(f []byte) []byte {
			f[len(f)-3] ^= 0x40
			return f
		},
		"crc_field": func(f []byte) []byte {
			f[12] ^= 0x01
			return f
		},
		"appended_garbage": func(f []byte) []byte { return append(f, 0xde, 0xad) },
	}
	for name, fn := range mutate {
		damaged := fn(append([]byte(nil), frame...))
		if _, derr := DecodeCheckpoint(damaged); derr == nil {
			t.Errorf("%s: damaged frame decoded cleanly", name)
		}
	}
}

// TestCheckpointDecodeRejectsInconsistentFrontier covers damage the CRC
// cannot catch: a well-formed frame whose payload lies about itself.
func TestCheckpointDecodeRejectsInconsistentFrontier(t *testing.T) {
	bad := map[string]func(*ExploreCheckpoint){
		"no_orders":      func(ck *ExploreCheckpoint) { ck.Orders = 0 },
		"done_past_end":  func(ck *ExploreCheckpoint) { ck.Done = ck.Orders + 1; ck.Settled = nil },
		"settled_len":    func(ck *ExploreCheckpoint) { ck.Settled = ck.Settled[:1] },
		"settled_index":  func(ck *ExploreCheckpoint) { ck.Settled[1].Index = 7 },
		"best_unsettled": func(ck *ExploreCheckpoint) { ck.BestIndex = 5 },
		"best_is_failed": func(ck *ExploreCheckpoint) { ck.BestIndex = 1 },
	}
	for name, corrupt := range bad {
		ck := sampleCheckpoint()
		corrupt(ck)
		// Encode skips validation on purpose (the explorer only emits
		// consistent frontiers); the decode side must reject.
		frame, err := EncodeCheckpoint(ck)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		if _, derr := DecodeCheckpoint(frame); derr == nil {
			t.Errorf("%s: inconsistent frontier decoded cleanly", name)
		}
	}
}

func TestCheckpointDecodeFaultInjection(t *testing.T) {
	frame, err := EncodeCheckpoint(sampleCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Reset()
	defer faultinject.Reset()
	boom := errors.New("disk returned trash")
	faultinject.Arm(faultinject.SiteCkptDecode, 1, func() error { return boom })
	if _, derr := DecodeCheckpoint(frame); !errors.Is(derr, boom) {
		t.Fatalf("armed decode site: got %v, want %v", derr, boom)
	}
	if _, derr := DecodeCheckpoint(frame); derr != nil {
		t.Fatalf("disarmed decode: %v", derr)
	}
}

func TestOrdersFingerprint(t *testing.T) {
	b := resumeBoard(t)
	orders := [][]NetID{{0, 1}, {1, 0}}
	opt := RouteOptions{Layer: 1, Budgets: map[NetID]int64{0: 100, 1: 200}}
	base := ordersFingerprint(b, opt, orders)
	if base != ordersFingerprint(b, opt, orders) {
		t.Fatal("fingerprint not stable across calls")
	}
	diffBudget := RouteOptions{Layer: 1, Budgets: map[NetID]int64{0: 100, 1: 201}}
	if base == ordersFingerprint(b, diffBudget, orders) {
		t.Fatal("budget change did not change the fingerprint")
	}
	diffConfig := opt
	diffConfig.Config.RefineIters = 3
	if base == ordersFingerprint(b, diffConfig, orders) {
		t.Fatal("config change did not change the fingerprint")
	}
	if base == ordersFingerprint(b, opt, [][]NetID{{1, 0}, {0, 1}}) {
		t.Fatal("enumeration change did not change the fingerprint")
	}
	// Same name, one more keepout: the board's content moved.
	other := resumeBoard(t)
	if base != ordersFingerprint(other, opt, orders) {
		t.Fatal("an identical board changed the fingerprint")
	}
	if err := other.AddObstacle(board.NetNone, 1, geom.RegionFromRect(geom.R(40, 0, 50, 10))); err != nil {
		t.Fatal(err)
	}
	if base == ordersFingerprint(other, opt, orders) {
		t.Fatal("board content change did not change the fingerprint")
	}
}

// FuzzCheckpointDecode hardens the frame parser: arbitrary bytes must
// never panic, and anything that decodes cleanly must satisfy the
// frontier invariants and survive a re-encode round trip.
func FuzzCheckpointDecode(f *testing.F) {
	valid, err := EncodeCheckpoint(sampleCheckpoint())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-2])           // torn tail
	f.Add(valid[:checkpointHeaderSize])   // header only
	f.Add([]byte(checkpointMagic))        // bare magic
	f.Add([]byte{})                       // empty
	f.Add(bytes.Repeat([]byte{0xa5}, 64)) // noise
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, derr := DecodeCheckpoint(data)
		if derr != nil {
			return
		}
		if verr := ck.validate(); verr != nil {
			t.Fatalf("decode accepted an invalid frontier: %v", verr)
		}
		re, rerr := EncodeCheckpoint(ck)
		if rerr != nil {
			t.Fatalf("decoded checkpoint does not re-encode: %v", rerr)
		}
		if _, derr2 := DecodeCheckpoint(re); derr2 != nil {
			t.Fatalf("re-encoded checkpoint does not decode: %v", derr2)
		}
	})
}
