package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// chromeEvent is one entry of the Chrome trace-event format (the JSON
// array flavor understood by Perfetto and chrome://tracing). Field order
// matters only for golden-test stability; encoding/json emits fields in
// declaration order and sorts map keys, so the output is deterministic.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int64          `json:"tid"`
	ID   string         `json:"id,omitempty"` // flow-event binding id
	BP   string         `json:"bp,omitempty"` // flow binding point
	S    string         `json:"s,omitempty"`  // instant-event scope
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level JSON object.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// usec converts a tracer offset to trace microseconds.
func usec(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// attrArgs converts span/event attrs to a Chrome args map.
func attrArgs(attrs []Attr, errMsg string) map[string]any {
	if len(attrs) == 0 && errMsg == "" {
		return nil
	}
	args := make(map[string]any, len(attrs)+1)
	for _, a := range attrs {
		args[a.Key] = a.Val
	}
	if errMsg != "" {
		args["error"] = errMsg
	}
	return args
}

// WriteChromeTrace exports every completed span, instant event and
// counter as Chrome trace-event JSON. The file loads directly in
// Perfetto (ui.perfetto.dev) or chrome://tracing; each WithTrack track
// (one per rail) renders as its own named thread row. The tracer renders
// as a one-replica stitched trace; writing on a nil or disabled tracer
// emits an empty trace.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	st := &StitchedTrace{Replicas: []string{""}}
	if t != nil {
		t.mu.Lock()
		for _, s := range t.spans {
			st.Spans = append(st.Spans, StitchedSpan{SpanRecord: s})
		}
		for _, e := range t.events {
			st.Events = append(st.Events, StitchedEvent{EventRecord: e})
		}
		t.mu.Unlock()
	}
	sortByStart(st.Spans)
	counters, _ := t.MetricsSnapshot()
	return st.writeChromeTrace(w, counters)
}

// WriteChromeTrace renders the stitched trace as Chrome trace-event
// JSON: one process row per replica, one thread row per track, duration
// events for spans, instant events, and flow arrows across the
// cross-replica stitch points.
func (st *StitchedTrace) WriteChromeTrace(w io.Writer) error {
	return st.writeChromeTrace(w, nil)
}

// writeChromeTrace is the one Chrome renderer. Process ids follow
// st.Replicas (the unnamed replica is "sprout"); thread ids are assigned
// in order of first use, tid 0 of each process being its main track.
// Each counter lands as one final "C" sample at the last span end, so
// Perfetto draws a counter track with the end-of-run totals.
func (st *StitchedTrace) writeChromeTrace(w io.Writer, counters map[string]int64) error {
	pidOf := map[string]int{}
	var replicas []string
	for _, r := range st.Replicas {
		if _, ok := pidOf[r]; !ok {
			pidOf[r] = len(replicas) + 1
			replicas = append(replicas, r)
		}
	}
	pid := func(replica string) int {
		if p, ok := pidOf[replica]; ok {
			return p
		}
		return 1
	}
	type trackKey struct {
		pid   int
		track string
	}
	tids := map[trackKey]int64{}
	var trackMeta []chromeEvent
	tid := func(p int, track string) int64 {
		if track == "" {
			return 0
		}
		k := trackKey{p, track}
		if id, ok := tids[k]; ok {
			return id
		}
		id := int64(len(tids) + 1)
		tids[k] = id
		trackMeta = append(trackMeta, chromeEvent{
			Name: "thread_name", Ph: "M", PID: p, TID: id,
			Args: map[string]any{"name": track},
		})
		return id
	}

	var events []chromeEvent
	for i, r := range replicas {
		name := r
		if name == "" {
			name = "sprout"
		}
		events = append(events, chromeEvent{
			Name: "process_name", Ph: "M", PID: i + 1, TID: 0,
			Args: map[string]any{"name": name},
		}, chromeEvent{
			Name: "thread_name", Ph: "M", PID: i + 1, TID: 0,
			Args: map[string]any{"name": "main"},
		})
	}

	byID := map[uint64]*StitchedSpan{}
	for i := range st.Spans {
		byID[st.Spans[i].ID] = &st.Spans[i]
	}
	var body []chromeEvent
	var endTS float64
	for i := range st.Spans {
		s := &st.Spans[i]
		p := pid(s.Replica)
		body = append(body, chromeEvent{
			Name: s.Name,
			Cat:  "stage",
			Ph:   "X",
			TS:   usec(s.Start),
			Dur:  usec(s.End - s.Start),
			PID:  p,
			TID:  tid(p, s.Track),
			Args: attrArgs(s.Attrs, s.Err),
		})
		endTS = max(endTS, usec(s.End))
		if s.Remote && s.Parent != 0 {
			if par, ok := byID[s.Parent]; ok {
				pp := pid(par.Replica)
				flowID := fmt.Sprintf("%d", s.ID)
				body = append(body, chromeEvent{
					Name: "hop", Cat: "trace", Ph: "s", ID: flowID,
					TS: usec(par.Start), PID: pp, TID: tid(pp, par.Track),
				}, chromeEvent{
					Name: "hop", Cat: "trace", Ph: "f", BP: "e", ID: flowID,
					TS: usec(s.Start), PID: p, TID: tid(p, s.Track),
				})
			}
		}
	}
	for _, e := range st.Events {
		p := pid(e.Replica)
		body = append(body, chromeEvent{
			Name: e.Name,
			Cat:  "iter",
			Ph:   "i",
			TS:   usec(e.TS),
			PID:  p,
			TID:  tid(p, e.Track),
			S:    "t",
			Args: attrArgs(e.Attrs, ""),
		})
	}
	names := make([]string, 0, len(counters))
	for name := range counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		body = append(body, chromeEvent{
			Name: name, Cat: "metric", Ph: "C", TS: endTS, PID: 1, TID: 0,
			Args: map[string]any{"value": counters[name]},
		})
	}

	events = append(events, trackMeta...)
	events = append(events, body...)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// WriteChromeTraceFile writes the Chrome trace to the named file.
func (t *Tracer) WriteChromeTraceFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: trace file: %w", err)
	}
	if err := t.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("obs: trace file: %w", err)
	}
	return nil
}
