package sprout

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"

	"sprout/internal/board"
	"sprout/internal/faultinject"
)

// An exploration checkpoint freezes the parallel explorer's reduction
// frontier: every order settled so far (score or failure) and which of
// them currently wins. It carries no routed board. A run resumed from a
// checkpoint replays the settled outcomes verbatim and only routes the
// orders past them; when the final winner is a settled order, that one
// order is routed again. Every order's board is a deterministic function
// of the order, so the re-routed winner is the uninterrupted sweep's
// board and the result stays bit-identical to that sweep (the
// differential harness is the gate) while routing strictly fewer rails.
//
// Checkpoints are framed for hostile storage: a magic, a version, the
// payload length and a CRC-32 guard the JSON payload, so a torn write or
// bit rot inside an intact WAL record is detected and rejected (the
// caller then simply restarts the sweep from scratch) instead of
// resuming from garbage.
const (
	checkpointMagic   = "SPK1"
	checkpointVersion = 1
	// checkpointHeaderSize is magic + version + payload length + CRC.
	checkpointHeaderSize = 4 + 4 + 4 + 4
	// checkpointMaxFrame bounds a plausible payload; a length field beyond
	// it is corruption, not an allocation.
	checkpointMaxFrame = 64 << 20
)

// ExploreCheckpoint is the serializable frontier of an order sweep: the
// settled outcomes and the index and score of the current winner.
type ExploreCheckpoint struct {
	// OrdersHash fingerprints the board identity, the routing knobs that
	// affect per-order results, and the exact order enumeration. A resume
	// whose recomputed fingerprint differs is rejected: the checkpoint
	// belongs to a different problem.
	OrdersHash string `json:"orders_hash"`
	// Orders is the total enumeration length; Done is how many leading
	// orders had settled when the checkpoint was taken.
	Orders int `json:"orders"`
	Done   int `json:"done"`
	// Settled records the outcome of each settled order, in enumeration
	// order (len == Done).
	Settled []CheckpointOrder `json:"settled,omitempty"`
	// BestIndex is the enumeration index of the current winner (-1 when
	// every settled order failed) and BestScore its score. Frames written
	// before the winner was re-routed on resume also carry a "best"
	// routed snapshot; decoding ignores it.
	BestIndex int     `json:"best_index"`
	BestScore float64 `json:"best_score,omitempty"`
}

// CheckpointOrder is the settled outcome of one enumerated order.
type CheckpointOrder struct {
	// Index is the order's enumeration index (redundant with position,
	// kept as a consistency check).
	Index int `json:"index"`
	// Score is the order's weighted resistance when it evaluated.
	Score float64 `json:"score,omitempty"`
	// Failed marks an order that did not route; Err/Kind/FailedNet
	// preserve its OrderError.
	Failed    bool   `json:"failed,omitempty"`
	Err       string `json:"err,omitempty"`
	Kind      string `json:"kind,omitempty"`
	FailedNet int    `json:"failed_net,omitempty"`
}

// EncodeCheckpoint frames a checkpoint for durable storage.
func EncodeCheckpoint(ck *ExploreCheckpoint) ([]byte, error) {
	if ck == nil {
		return nil, errors.New("sprout: encode nil checkpoint")
	}
	payload, err := json.Marshal(ck)
	if err != nil {
		return nil, fmt.Errorf("sprout: encode checkpoint: %w", err)
	}
	buf := make([]byte, checkpointHeaderSize+len(payload))
	copy(buf[0:4], checkpointMagic)
	binary.LittleEndian.PutUint32(buf[4:8], checkpointVersion)
	binary.LittleEndian.PutUint32(buf[8:12], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[12:16], crc32.ChecksumIEEE(payload))
	copy(buf[checkpointHeaderSize:], payload)
	return buf, nil
}

// DecodeCheckpoint parses and validates a checkpoint frame. Any damage —
// wrong magic or version, torn frame, CRC mismatch, unparseable payload,
// or internally inconsistent frontier — is an error; the caller treats a
// failed decode as "no checkpoint" and restarts the sweep from scratch.
func DecodeCheckpoint(frame []byte) (*ExploreCheckpoint, error) {
	if ferr := faultinject.Check(faultinject.SiteCkptDecode); ferr != nil {
		return nil, fmt.Errorf("sprout: decode checkpoint: %w", ferr)
	}
	if len(frame) < checkpointHeaderSize {
		return nil, fmt.Errorf("sprout: checkpoint frame truncated (%d bytes)", len(frame))
	}
	if string(frame[0:4]) != checkpointMagic {
		return nil, errors.New("sprout: checkpoint frame has wrong magic")
	}
	if v := binary.LittleEndian.Uint32(frame[4:8]); v != checkpointVersion {
		return nil, fmt.Errorf("sprout: checkpoint version %d not supported", v)
	}
	n := int(binary.LittleEndian.Uint32(frame[8:12]))
	if n <= 0 || n > checkpointMaxFrame || len(frame)-checkpointHeaderSize != n {
		return nil, fmt.Errorf("sprout: checkpoint length %d inconsistent with frame of %d bytes", n, len(frame))
	}
	payload := frame[checkpointHeaderSize:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(frame[12:16]) {
		return nil, errors.New("sprout: checkpoint CRC mismatch")
	}
	ck := &ExploreCheckpoint{}
	if err := json.Unmarshal(payload, ck); err != nil {
		return nil, fmt.Errorf("sprout: checkpoint payload: %w", err)
	}
	if err := ck.validate(); err != nil {
		return nil, err
	}
	return ck, nil
}

// validate rejects internally inconsistent frontiers — the shapes a
// fuzzer (or bit rot that keeps JSON parseable) can produce.
func (ck *ExploreCheckpoint) validate() error {
	switch {
	case ck.Orders <= 0:
		return fmt.Errorf("sprout: checkpoint enumerates %d orders", ck.Orders)
	case ck.Done < 0 || ck.Done > ck.Orders:
		return fmt.Errorf("sprout: checkpoint settled %d of %d orders", ck.Done, ck.Orders)
	case len(ck.Settled) != ck.Done:
		return fmt.Errorf("sprout: checkpoint carries %d settled outcomes for %d done orders", len(ck.Settled), ck.Done)
	case ck.BestIndex < -1 || ck.BestIndex >= ck.Done:
		return fmt.Errorf("sprout: checkpoint best index %d outside settled prefix of %d", ck.BestIndex, ck.Done)
	}
	for i, co := range ck.Settled {
		if co.Index != i {
			return fmt.Errorf("sprout: checkpoint settled[%d] carries index %d", i, co.Index)
		}
	}
	if ck.BestIndex >= 0 {
		if co := ck.Settled[ck.BestIndex]; co.Failed {
			return fmt.Errorf("sprout: checkpoint best index %d points at a failed order", ck.BestIndex)
		}
	}
	return nil
}

// ordersFingerprint hashes everything a checkpoint's settled outcomes
// depend on: the board's content, the routing knobs that change per-order
// results, and the exact enumeration. Two sweeps with equal fingerprints
// settle identical outcomes for identical indices.
func ordersFingerprint(b *board.Board, opt RouteOptions, orders [][]board.NetID) string {
	h := sha256.New()
	fmt.Fprintf(h, "board=%s outline=%v stackup=%+v rules=%+v\n", b.Name, b.Outline, b.Stackup.Layers, b.Rules)
	for _, n := range b.Nets {
		fmt.Fprintf(h, "net %+v\n", n)
	}
	// Regions hash as their canonical rectangles.
	for _, g := range b.Groups {
		fmt.Fprintf(h, "group %q kind=%d net=%d layer=%d current=%v shape=%v\n",
			g.Name, g.Kind, g.Net, g.Layer, g.Current, g.Shape().Rects())
	}
	for _, o := range b.Obstacle {
		fmt.Fprintf(h, "obstacle net=%d layer=%d shape=%v\n", o.Net, o.Layer, o.Shape.Rects())
	}
	fmt.Fprintf(h, "layer=%d manual=%t skipx=%t pitch=%d\n",
		opt.Layer, opt.WithManual, opt.SkipExtract, opt.ExtractPitch)
	// route.Config is a flat struct of scalars, so %+v is deterministic.
	fmt.Fprintf(h, "config=%+v\n", opt.Config)
	ids := make([]int, 0, len(opt.Budgets))
	for id := range opt.Budgets {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	for _, id := range ids {
		fmt.Fprintf(h, "budget %d=%d\n", id, opt.Budgets[board.NetID(id)])
	}
	for _, order := range orders {
		for _, id := range order {
			fmt.Fprintf(h, "%d,", int(id))
		}
		fmt.Fprintln(h)
	}
	return hex.EncodeToString(h.Sum(nil))
}
