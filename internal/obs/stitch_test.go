package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestTraceContextHeaderRoundTrip(t *testing.T) {
	id := NewTraceID()
	tc := TraceContext{TraceID: id, Parent: 0xdeadbeefcafe0123}
	hdr := tc.Header()
	if !strings.HasPrefix(hdr, "00-"+id+"-") || !strings.HasSuffix(hdr, "-01") {
		t.Fatalf("header %q not in 00-<trace>-<ref>-01 form", hdr)
	}
	got, ok := ParseTraceContext(hdr)
	if !ok || got != tc {
		t.Fatalf("round trip: ParseTraceContext(%q) = (%+v, %v), want %+v", hdr, got, ok, tc)
	}
}

func TestParseTraceContextRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"garbage",
		"01-00000000000000000000000000000000-0000000000000001-01", // unknown version
		"00-short-0000000000000001-01",
		"00-0000000000000000000000000000000g-0000000000000001-01", // non-hex trace
		"00-00000000000000000000000000000000-00000000000000zz-01", // non-hex ref
		"00-00000000000000000000000000000000-01",                  // missing field
	}
	for _, v := range bad {
		if tc, ok := ParseTraceContext(v); ok {
			t.Fatalf("ParseTraceContext(%q) accepted as %+v; a bad header must detach the trace", v, tc)
		}
	}
	// A zero context formats to "" and a "" header parses to nothing —
	// the no-trace case needs no special casing at call sites.
	if h := (TraceContext{}).Header(); h != "" {
		t.Fatalf("zero context header = %q, want empty", h)
	}
}

func TestSpanRefNeverZeroAndReplicaQualified(t *testing.T) {
	seen := map[uint64]string{}
	for _, replica := range []string{"", "a", "b", "replica-long-name"} {
		for id := uint64(0); id < 50; id++ {
			ref := SpanRef(replica, id)
			if ref == 0 {
				t.Fatalf("SpanRef(%q, %d) = 0; zero is reserved for no-parent", replica, id)
			}
			key := replica + "/" + string(rune(id))
			if prev, dup := seen[ref]; dup {
				t.Fatalf("SpanRef collision: %s and %s both map to %d", prev, key, ref)
			}
			seen[ref] = key
		}
	}
	if SpanRef("a", 1) == SpanRef("b", 1) {
		t.Fatal("span refs must be qualified by replica name")
	}
	if SpanRef("a", 1) != SpanRef("a", 1) {
		t.Fatal("span refs must be deterministic")
	}
}

func TestContextTraceTracksInnermostSpan(t *testing.T) {
	tr := New(WithReplica("a"), WithClock(fakeClock()))
	ctx := WithTracer(context.Background(), tr)

	// No span open: the header points at the trace root.
	tc := ContextTrace(ctx)
	if tc.TraceID != tr.TraceID() || tc.Parent != 0 {
		t.Fatalf("root context trace = %+v, want trace %s parent 0", tc, tr.TraceID())
	}

	ctx1, sp1 := StartSpan(ctx, "outer")
	ctx2, sp2 := StartSpan(ctx1, "inner")
	if got := ContextTrace(ctx2).Parent; got != SpanRef("a", 2) {
		t.Fatalf("inner context parent ref = %d, want ref of span 2 (%d)", got, SpanRef("a", 2))
	}
	if got := ContextTrace(ctx1).Parent; got != SpanRef("a", 1) {
		t.Fatalf("outer context parent ref = %d, want ref of span 1 (%d)", got, SpanRef("a", 1))
	}
	sp2.End()
	sp1.End()

	// Disabled tracing yields no header at all.
	if h := TraceHeader(context.Background()); h != "" {
		t.Fatalf("TraceHeader without a tracer = %q, want empty", h)
	}
}

func TestTracerAdoptsPropagatedTrace(t *testing.T) {
	origin := New(WithReplica("a"), WithClock(fakeClock()))
	ctx := WithTracer(context.Background(), origin)
	ctx, hop := StartSpan(ctx, "ShardSubmit")
	hdr := TraceHeader(ctx)
	hop.End()

	tc, ok := ParseTraceContext(hdr)
	if !ok {
		t.Fatalf("ParseTraceContext(%q) failed", hdr)
	}
	remote := New(WithReplica("b"), WithTraceID(tc.TraceID), WithRemoteParent(tc.Parent))
	if remote.TraceID() != origin.TraceID() {
		t.Fatalf("remote tracer id %s, want propagated %s", remote.TraceID(), origin.TraceID())
	}
	// Invalid ids are ignored, keeping the generated one.
	kept := New(WithTraceID("nope"))
	if len(kept.TraceID()) != 32 || kept.TraceID() == "nope" {
		t.Fatalf("WithTraceID must ignore invalid ids, got %q", kept.TraceID())
	}
}

// stitchFixture builds the canonical two-replica trace: replica a opens a
// ShardSubmit hop span, replica b runs a Job span (with a nested stage)
// under the propagated ref. Returns the two exported parts.
func stitchFixture(t *testing.T) (partA, partB TracePart) {
	t.Helper()
	epoch := time.Unix(1700000000, 0)
	a := New(WithReplica("a"), WithClock(fakeClock()), WithEpoch(epoch))
	actx := WithTracer(context.Background(), a)
	actx, hop := StartSpan(actx, "ShardSubmit", A("peer", "b"))
	hdr := TraceHeader(actx)

	tc, ok := ParseTraceContext(hdr)
	if !ok {
		t.Fatalf("bad hop header %q", hdr)
	}
	// Replica b's clock is 5ms ahead — the stitcher must align epochs.
	b := New(WithReplica("b"), WithClock(fakeClock()),
		WithEpoch(epoch.Add(5*time.Millisecond)),
		WithTraceID(tc.TraceID), WithRemoteParent(tc.Parent))
	bctx := WithTracer(context.Background(), b)
	bctx, job := StartSpan(bctx, "Job", A("job", "b-1"))
	_, stage := StartSpan(bctx, "Grow")
	stage.End()
	job.End()
	hop.End()
	return a.TracePart(), b.TracePart()
}

func TestStitchResolvesRemoteParents(t *testing.T) {
	partA, partB := stitchFixture(t)
	if partA.TraceID != partB.TraceID {
		t.Fatalf("parts carry different trace ids: %s vs %s", partA.TraceID, partB.TraceID)
	}

	st, err := Stitch([]TracePart{partA, partB})
	if err != nil {
		t.Fatal(err)
	}
	if st.TraceID != partA.TraceID {
		t.Fatalf("stitched trace id %s, want %s", st.TraceID, partA.TraceID)
	}
	if len(st.Spans) != 3 {
		t.Fatalf("stitched %d spans, want 3 (hop, job, stage)", len(st.Spans))
	}
	byName := map[string]StitchedSpan{}
	for _, s := range st.Spans {
		byName[s.Name] = s
	}
	hop, job, stage := byName["ShardSubmit"], byName["Job"], byName["Grow"]
	if hop.Replica != "a" || job.Replica != "b" {
		t.Fatalf("replica attribution wrong: hop on %q, job on %q", hop.Replica, job.Replica)
	}
	if !job.Remote || job.Parent != hop.ID {
		t.Fatalf("Job span must nest under the remote ShardSubmit span: parent=%d remote=%v, hop id=%d",
			job.Parent, job.Remote, hop.ID)
	}
	if stage.Remote || stage.Parent != job.ID {
		t.Fatalf("Grow span must nest locally under Job: parent=%d remote=%v, job id=%d",
			stage.Parent, stage.Remote, job.ID)
	}
	// Epoch skew: b's offsets shift onto a's (earlier) timeline, so the
	// job starts after the hop opened.
	if job.Start <= hop.Start {
		t.Fatalf("epoch alignment lost: job start %v <= hop start %v", job.Start, hop.Start)
	}
}

func TestStitchDeduplicatesAndDegradesGracefully(t *testing.T) {
	partA, partB := stitchFixture(t)

	// The same part gathered via two scatter paths counts once.
	st, err := Stitch([]TracePart{partA, partB, partB, partA})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Spans) != 3 {
		t.Fatalf("dedupe failed: %d spans, want 3", len(st.Spans))
	}

	// A missing part (a's hop never arrived) must not hide b's spans:
	// the unresolvable ref degrades to a root span.
	st, err = Stitch([]TracePart{partB})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Spans) != 2 {
		t.Fatalf("stitched %d spans from the surviving part, want 2", len(st.Spans))
	}
	for _, s := range st.Spans {
		if s.Name == "Job" && (s.Parent != 0 || s.Remote) {
			t.Fatalf("unresolvable remote ref must degrade to a root span, got parent=%d remote=%v", s.Parent, s.Remote)
		}
	}

	// Empty input and empty parts stitch to an empty, valid trace.
	st, err = Stitch([]TracePart{{Replica: "idle"}})
	if err != nil || len(st.Spans) != 0 {
		t.Fatalf("empty parts: (%d spans, %v), want (0, nil)", len(st.Spans), err)
	}
}

func TestStitchedChromeTraceDrawsHops(t *testing.T) {
	partA, partB := stitchFixture(t)
	st, err := Stitch([]TracePart{partA, partB})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			PID  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	pids := map[string]int{}
	var flowStarts, flowEnds int
	spanPID := map[string]int{}
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Name == "process_name" && ev.Ph == "M":
			pids[ev.Args["name"].(string)] = ev.PID
		case ev.Name == "hop" && ev.Ph == "s":
			flowStarts++
		case ev.Name == "hop" && ev.Ph == "f":
			flowEnds++
		case ev.Ph == "X":
			spanPID[ev.Name] = ev.PID
		}
	}
	if pids["a"] == 0 || pids["b"] == 0 || pids["a"] == pids["b"] {
		t.Fatalf("want one process row per replica, got %v", pids)
	}
	if flowStarts != 1 || flowEnds != 1 {
		t.Fatalf("want exactly one flow arrow across the hop, got %d starts / %d ends", flowStarts, flowEnds)
	}
	if spanPID["ShardSubmit"] != pids["a"] || spanPID["Job"] != pids["b"] {
		t.Fatalf("span/process attribution wrong: %v vs %v", spanPID, pids)
	}
}

// encodePart encodes a part the way GET /v1/jobs/{id}/traceparts does.
func encodePart(t *testing.T, part TracePart) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(part); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTracePartWireGolden pins the part format replicas of different
// versions exchange: testdata/tracepart_golden.json is goldenTracer's
// part (trace id and epoch fixed) as the wire encoded it before spans
// and parts shared one record type. It is not regenerated.
func TestTracePartWireGolden(t *testing.T) {
	tr := goldenTracer()
	part := tr.TracePart()
	part.TraceID = "0123456789abcdef0123456789abcdef"
	part.EpochUnixNano = 1700000000000000000
	want, err := os.ReadFile(filepath.Join("testdata", "tracepart_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got := encodePart(t, part); !bytes.Equal(got, want) {
		t.Fatalf("trace part wire format drifted:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	var decoded TracePart
	if err := json.Unmarshal(want, &decoded); err != nil {
		t.Fatal(err)
	}
	if got := encodePart(t, decoded); !bytes.Equal(got, want) {
		t.Fatalf("decode and re-encode changed the part:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// The decoded part stitches to what the tracer itself renders: with the
	// tracer's counters, the Chrome golden byte for byte.
	st, err := Stitch([]TracePart{decoded})
	if err != nil {
		t.Fatal(err)
	}
	counters, _ := tr.MetricsSnapshot()
	var buf bytes.Buffer
	if err := st.writeChromeTrace(&buf, counters); err != nil {
		t.Fatal(err)
	}
	chrome, err := os.ReadFile(filepath.Join("testdata", "chrometrace_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), chrome) {
		t.Fatalf("stitched part renders differently from the tracer:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), chrome)
	}
}
