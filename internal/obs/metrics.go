package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically growing int64 metric, safe for concurrent
// use. The nil counter (returned by a nil/disabled tracer) is a safe
// no-op.
type Counter struct {
	v atomic.Int64
}

// Gauge is a last-value int64 metric (e.g. worker-pool size), safe for
// concurrent use. Unlike a Counter it can move both ways; the snapshot
// reports the most recently set value. The nil gauge is a safe no-op.
type Gauge struct {
	v atomic.Int64
}

// histBounds are the default histogram bucket upper bounds (powers of
// four cover both CG iteration counts and Laplacian nnz ranges); the
// final implicit bucket is +Inf. The metric registry (names.go) assigns
// latency-shaped bounds to *_ms histograms instead.
var histBounds = countBuckets

// Histogram tracks the distribution of a float64 metric with fixed
// per-metric buckets (assigned by the registry) plus count/sum/min/max,
// safe for concurrent use. The nil histogram is a safe no-op.
type Histogram struct {
	mu       sync.Mutex
	bounds   []float64
	count    int64
	sum      float64
	min, max float64
	buckets  []int64 // len(bounds)+1, last = overflow
}

// HistogramSummary is the JSON-friendly snapshot of a Histogram.
type HistogramSummary struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	// P50/P95/P99 are quantile estimates interpolated from the fixed
	// buckets (exact at the bucket boundaries, clamped to [Min, Max]).
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
	// Bounds lists the bucket upper limits; Buckets[i] counts samples at
	// or below Bounds[i] (and above the previous bound), the final extra
	// entry counts the overflow above the last bound.
	Bounds  []float64 `json:"bounds,omitempty"`
	Buckets []int64   `json:"buckets,omitempty"`
}

// Quantile interpolates the q-quantile (0 < q < 1) from the bucket
// counts, Prometheus histogram_quantile style: locate the bucket holding
// the target rank, then interpolate linearly inside it. Results are
// clamped to the observed [Min, Max], which also makes the overflow
// bucket exact-bounded. Returns 0 on an empty summary.
func (s HistogramSummary) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	target := q * float64(s.Count)
	var cum int64
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		if float64(cum+c) >= target {
			lo := s.Min
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			hi := s.Max
			if i < len(s.Bounds) && s.Bounds[i] < hi {
				hi = s.Bounds[i]
			}
			if lo > hi {
				lo = hi
			}
			frac := (target - float64(cum)) / float64(c)
			v := lo + (hi-lo)*frac
			if v < s.Min {
				v = s.Min
			}
			if v > s.Max {
				v = s.Max
			}
			return v
		}
		cum += c
	}
	return s.Max
}

// Counter returns the named counter, creating it on first use. A nil or
// disabled tracer returns nil, whose Add is a no-op. The name must be
// registered in names.go (panics otherwise, like faultinject.Arm).
func (t *Tracer) Counter(name string) *Counter {
	if !t.Enabled() {
		return nil
	}
	mustMetric(name, KindCounter)
	t.metricsMu.Lock()
	defer t.metricsMu.Unlock()
	if t.counters == nil {
		t.counters = map[string]*Counter{}
	}
	c, ok := t.counters[name]
	if !ok {
		c = &Counter{}
		t.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil or
// disabled tracer returns nil, whose Set/Add are no-ops. The name must
// be registered in names.go.
func (t *Tracer) Gauge(name string) *Gauge {
	if !t.Enabled() {
		return nil
	}
	mustMetric(name, KindGauge)
	t.metricsMu.Lock()
	defer t.metricsMu.Unlock()
	if t.gauges == nil {
		t.gauges = map[string]*Gauge{}
	}
	g, ok := t.gauges[name]
	if !ok {
		g = &Gauge{}
		t.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use with
// the bucket bounds its registration declares. A nil or disabled tracer
// returns nil, whose Observe is a no-op. The name must be registered in
// names.go.
func (t *Tracer) Histogram(name string) *Histogram {
	if !t.Enabled() {
		return nil
	}
	def := mustMetric(name, KindHistogram)
	t.metricsMu.Lock()
	defer t.metricsMu.Unlock()
	if t.hists == nil {
		t.hists = map[string]*Histogram{}
	}
	h, ok := t.hists[name]
	if !ok {
		bounds := def.Buckets
		if bounds == nil {
			bounds = histBounds
		}
		h = &Histogram{bounds: bounds, buckets: make([]int64, len(bounds)+1)}
		t.hists[name] = h
	}
	return h
}

// Add increments the counter (no-op on nil).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Set replaces the gauge value (no-op on nil).
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value returns the current gauge value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Observe records one sample (no-op on nil).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i]++
}

// Summary snapshots the histogram (zero value on nil).
func (h *Histogram) Summary() HistogramSummary {
	if h == nil {
		return HistogramSummary{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return HistogramSummary{}
	}
	s := HistogramSummary{
		Count:   h.count,
		Sum:     h.sum,
		Min:     h.min,
		Max:     h.max,
		Mean:    h.sum / float64(h.count),
		Bounds:  append([]float64(nil), h.bounds...),
		Buckets: append([]int64(nil), h.buckets...),
	}
	s.P50 = s.Quantile(0.50)
	s.P95 = s.Quantile(0.95)
	s.P99 = s.Quantile(0.99)
	return s
}

// absorb folds a snapshotted histogram into this one. Bucket layouts
// come from the registry, so they match whenever both sides observe the
// same metric name; a layout mismatch (a foreign snapshot from a build
// with different bounds) degrades to counting everything as overflow
// rather than mis-binning it.
func (h *Histogram) absorb(s HistogramSummary) {
	if h == nil || s.Count == 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 || s.Min < h.min {
		h.min = s.Min
	}
	if h.count == 0 || s.Max > h.max {
		h.max = s.Max
	}
	h.count += s.Count
	h.sum += s.Sum
	if len(s.Buckets) == len(h.buckets) {
		for i, c := range s.Buckets {
			h.buckets[i] += c
		}
	} else {
		h.buckets[len(h.buckets)-1] += s.Count
	}
}

// AbsorbMetrics folds another tracer's counters and histograms into this
// one — how per-job tracer metrics (stage latency, solver telemetry)
// reach the replica-wide tracer that /metrics exposes. Gauges are
// deliberately skipped: a job-scoped point-in-time value must not
// overwrite the replica's live gauges. Nil-safe on both sides.
func (t *Tracer) AbsorbMetrics(from *Tracer) {
	if !t.Enabled() || !from.Enabled() {
		return
	}
	counters, hists := from.MetricsSnapshot()
	for name, v := range counters {
		if v != 0 {
			t.Counter(name).Add(v)
		}
	}
	for name, s := range hists {
		t.Histogram(name).absorb(s)
	}
}

// MetricsSnapshot returns the current counter values and histogram
// summaries by name (nil maps on a nil/disabled tracer).
func (t *Tracer) MetricsSnapshot() (map[string]int64, map[string]HistogramSummary) {
	if !t.Enabled() {
		return nil, nil
	}
	t.metricsMu.Lock()
	defer t.metricsMu.Unlock()
	var counters map[string]int64
	if len(t.counters) > 0 {
		counters = make(map[string]int64, len(t.counters))
		for name, c := range t.counters {
			counters[name] = c.Value()
		}
	}
	var hists map[string]HistogramSummary
	if len(t.hists) > 0 {
		hists = make(map[string]HistogramSummary, len(t.hists))
		for name, h := range t.hists {
			hists[name] = h.Summary()
		}
	}
	return counters, hists
}

// GaugesSnapshot returns the current gauge values by name (nil map on a
// nil/disabled tracer or when no gauge was ever touched).
func (t *Tracer) GaugesSnapshot() map[string]int64 {
	if !t.Enabled() {
		return nil
	}
	t.metricsMu.Lock()
	defer t.metricsMu.Unlock()
	if len(t.gauges) == 0 {
		return nil
	}
	gauges := make(map[string]int64, len(t.gauges))
	for name, g := range t.gauges {
		gauges[name] = g.Value()
	}
	return gauges
}
