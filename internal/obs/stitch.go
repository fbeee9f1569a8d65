package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"
)

// Trace stitching: every replica that touched a job exports its tracer
// as a TracePart (spans, events, epoch, replica name, remote-parent
// ref); Stitch merges the parts into one trace with globally unique span
// ids, resolves cross-replica parent links via span refs, aligns the
// per-replica clocks on the earliest part epoch, and renders the result
// as one Perfetto-loadable Chrome trace — each replica a process row,
// each track a thread row, cross-replica edges drawn as flow arrows.

// TracePart is one replica's slice of a distributed trace — the unit
// served by GET /v1/jobs/{id}/traceparts and consumed by Stitch.
type TracePart struct {
	Replica string `json:"replica"`
	TraceID string `json:"trace_id,omitempty"`
	// ParentRef is the cross-replica ref of the remote span this part's
	// root spans nest under (0 = this part starts the trace).
	ParentRef uint64 `json:"parent_ref,omitempty"`
	// EpochUnixNano is the wall-clock origin of the part's offsets.
	EpochUnixNano int64         `json:"epoch_unix_nano"`
	Spans         []SpanRecord  `json:"spans,omitempty"`
	Events        []EventRecord `json:"events,omitempty"`
}

// TracePart exports the tracer's completed spans and events for
// stitching. Safe on a nil tracer (returns an empty part).
func (t *Tracer) TracePart() TracePart {
	if t == nil {
		return TracePart{}
	}
	part := TracePart{
		Replica:       t.replica,
		TraceID:       t.traceID,
		ParentRef:     t.remoteParent,
		EpochUnixNano: t.epoch.UnixNano(),
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	part.Spans = append(part.Spans, t.spans...)
	part.Events = append(part.Events, t.events...)
	return part
}

// StitchedSpan is one span of a merged trace: the recorded span with a
// globally unique ID, its Parent resolved across replicas, and Start/End
// shifted onto the stitched epoch (the earliest part epoch).
type StitchedSpan struct {
	SpanRecord
	Replica string
	// Remote marks a span whose parent lives on a different replica —
	// the stitch point the Chrome exporter draws a flow arrow for.
	Remote bool
}

// StitchedEvent is one instant event of a merged trace, its TS shifted
// onto the stitched epoch.
type StitchedEvent struct {
	EventRecord
	Replica string
}

// StitchedTrace is the merged view of one distributed trace.
type StitchedTrace struct {
	TraceID string
	// Replicas lists the contributing replica names in part order.
	Replicas []string
	Spans    []StitchedSpan
	Events   []StitchedEvent
}

// Stitch merges per-replica trace parts into one trace. Parts are
// ordered deterministically (epoch, then replica name), duplicates
// (the same part gathered via two scatter paths) are dropped, and
// cross-replica parent links are resolved via span refs: a part whose
// ParentRef matches a span in another part nests its root spans under
// that span. Unresolvable refs degrade to root spans — a missing part
// must not hide the parts that did arrive.
func Stitch(parts []TracePart) (*StitchedTrace, error) {
	// Deduplicate by content identity, then order deterministically.
	seen := map[string]bool{}
	var kept []TracePart
	for _, p := range parts {
		if len(p.Spans) == 0 && len(p.Events) == 0 {
			continue
		}
		key, err := json.Marshal(p)
		if err != nil {
			return nil, fmt.Errorf("obs: stitch: encode part: %w", err)
		}
		if seen[string(key)] {
			continue
		}
		seen[string(key)] = true
		kept = append(kept, p)
	}
	sort.SliceStable(kept, func(i, j int) bool {
		if kept[i].EpochUnixNano != kept[j].EpochUnixNano {
			return kept[i].EpochUnixNano < kept[j].EpochUnixNano
		}
		return kept[i].Replica < kept[j].Replica
	})

	st := &StitchedTrace{}
	if len(kept) == 0 {
		return st, nil
	}
	epoch0 := kept[0].EpochUnixNano
	for _, p := range kept {
		if p.EpochUnixNano < epoch0 {
			epoch0 = p.EpochUnixNano
		}
		if st.TraceID == "" {
			st.TraceID = p.TraceID
		}
		st.Replicas = append(st.Replicas, p.Replica)
	}

	// Pass 1: assign global ids and index every span's cross-replica ref.
	type key struct {
		part int
		id   uint64
	}
	var next uint64
	gids := map[key]uint64{}
	refs := map[uint64]uint64{} // SpanRef -> global id
	for pi, p := range kept {
		for _, s := range p.Spans {
			next++
			gids[key{pi, s.ID}] = next
			refs[SpanRef(p.Replica, s.ID)] = next
		}
	}

	// Pass 2: emit spans with resolved parents on the common timeline.
	for pi, p := range kept {
		skew := time.Duration(p.EpochUnixNano - epoch0)
		for _, s := range p.Spans {
			out := StitchedSpan{SpanRecord: s, Replica: p.Replica}
			out.ID, out.Parent = gids[key{pi, s.ID}], 0
			out.Start += skew
			out.End += skew
			switch {
			case s.Parent != 0:
				out.Parent = gids[key{pi, s.Parent}]
			case p.ParentRef != 0:
				if gid, ok := refs[p.ParentRef]; ok {
					out.Parent = gid
					out.Remote = true
				}
			}
			st.Spans = append(st.Spans, out)
		}
		for _, e := range p.Events {
			out := StitchedEvent{EventRecord: e, Replica: p.Replica}
			out.TS += skew
			st.Events = append(st.Events, out)
		}
	}
	sortByStart(st.Spans)
	return st, nil
}

// sortByStart orders spans by (start, id). Spans are recorded in end
// order; start order makes the nesting read top-down in the viewer and
// keeps the output stable.
func sortByStart(spans []StitchedSpan) {
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].ID < spans[j].ID
	})
}
