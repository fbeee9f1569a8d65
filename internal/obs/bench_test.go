package obs

import (
	"context"
	"io"
	"testing"
	"time"
)

// The disabled-path benchmarks back the <2% overhead claim: every
// instrumentation site in the pipeline reduces to these operations when no
// tracer is attached, so they must stay in the nanosecond range.

func BenchmarkDisabledStartSpan(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := StartSpan(ctx, "Seed")
		sp.End()
	}
}

func BenchmarkDisabledEvent(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Event(ctx, "iter.grow")
	}
}

func BenchmarkDisabledEnabledCheck(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if Enabled(ctx) {
			b.Fatal("bare context must be disabled")
		}
	}
}

func BenchmarkDisabledCounterAdd(b *testing.B) {
	var tr *Tracer
	c := tr.Counter("solver.iterations")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkEnabledStartSpan(b *testing.B) {
	tr := New()
	ctx := WithTracer(context.Background(), tr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, sp := StartSpan(ctx, "Seed")
		sp.End()
	}
}

// benchParts builds a realistic stitched-trace input: three replicas,
// a few hundred spans each, cross-linked by remote parent refs.
func benchParts() []TracePart {
	var parts []TracePart
	var parentRef uint64
	for r, replica := range []string{"r1", "r2", "r3"} {
		part := TracePart{
			Replica:       replica,
			TraceID:       "0123456789abcdef0123456789abcdef",
			ParentRef:     parentRef,
			EpochUnixNano: int64(1700000000_000000000 + r*1000000),
		}
		for i := 0; i < 200; i++ {
			id := uint64(i + 1)
			var parent uint64
			if i > 0 {
				parent = uint64(i) // chain under the previous span
			}
			part.Spans = append(part.Spans, SpanRecord{
				ID: id, Parent: parent, Name: "Grow",
				Start: time.Duration(i) * time.Microsecond,
				End:   time.Duration(i)*time.Microsecond + 500,
			})
		}
		parentRef = SpanRef(replica, 200)
		parts = append(parts, part)
	}
	return parts
}

// BenchmarkTraceStitch measures the cross-replica merge the /trace
// endpoint performs per request (600 spans across 3 parts).
func BenchmarkTraceStitch(b *testing.B) {
	parts := benchParts()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Stitch(parts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrometheusExposition measures one /metrics render over a
// metric population shaped like a loaded replica (wildcard counters,
// labeled and stage histograms).
func BenchmarkPrometheusExposition(b *testing.B) {
	tr := New(WithReplica("bench"))
	for i := 0; i < 8; i++ {
		tr.Counter(MSolverPrecondPrefix + string(rune('a'+i))).Add(int64(i + 1))
	}
	tr.Counter(MJobsAccepted).Add(1000)
	tr.Gauge(MServerWorkers).Set(8)
	hists := []string{
		MJobRunMS, MJobQueueWaitMS, MWALAppendMS, MExploreNodeMS,
		MStagePrefix + "grow", MStagePrefix + "refine", MStageSolve,
		WithLabels(MHTTPRequestMS, "route", "submit", "status", "202"),
		WithLabels(MHTTPRequestMS, "route", "status", "status", "200"),
	}
	for _, name := range hists {
		h := tr.Histogram(name)
		for v := 0.01; v < 10000; v *= 3 {
			h.Observe(v)
		}
	}
	opts := PromOptions{Labels: []string{"replica", "bench", "shard", "bench"}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.WritePrometheus(io.Discard, opts); err != nil {
			b.Fatal(err)
		}
	}
}
