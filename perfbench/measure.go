package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"sprout"
	"sprout/internal/obs"
)

// workload is one benchmark workload over a cycle of input variants. R is
// the result of one op.
type workload[R any] interface {
	// variants is the number of inputs one cycle visits.
	variants() int
	// op is the timed operation on variant v, a public sprout call.
	op(ctx context.Context, v int) (R, error)
	// check verifies an op's result outside the timed interval and
	// returns the IR drop of the routed rails in mV.
	check(v int, res R) (irDropMV float64, err error)
	// rebuild repeats op v under the tracer that ctx carries, so the
	// layers leave spans.
	rebuild(ctx context.Context, v int) (R, error)
	// same reports how a traced result differs from the untraced one.
	same(want, got R) error
	// layers sets the workload's per-layer metrics from a traced run.
	layers(t *traceRun, r *report) error
}

// cycler yields input variants in whole cycles: each cycle visits every
// variant once, in an order drawn from the seed.
type cycler struct {
	rng *rand.Rand
	n   int
}

func newCycler(seed uint64, n int) *cycler {
	return &cycler{rng: rand.New(rand.NewPCG(seed, 0x5350524f5554)), n: n}
}

func (c *cycler) next() []int { return c.rng.Perm(c.n) }

// stats accumulates what a run measured.
type stats struct {
	attempted, failed int
	// opMS holds the wall time of each untraced op that passed its
	// checks; timed sums the wall time of every untraced op.
	opMS  []float64
	timed time.Duration
	// heap sums the allocations of the ops in opMS.
	heap     runtimeUse
	irDropMV []float64
	// Traced run only: rebuilds counts traced ops, tracedMS holds the
	// wall time of each one that matched its untraced op, and traced sums
	// the runtime counters over all of them.
	rebuilds int
	tracedMS []float64
	traced   runtimeUse
}

func (st *stats) fail(what string, err error) {
	st.failed++
	fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
}

// setupRepeats is how often the workload is set up; setup_s is the
// median.
const setupRepeats = 3

// setUp builds the workload setupRepeats times, each time with one
// warm-up op on variant 0, and keeps the last one. It returns the set-up
// times in seconds. A warm-up op that fails its check counts as a failed
// op.
func setUp[R any](ctx context.Context, newW func() (workload[R], error)) (workload[R], []float64, *stats, error) {
	st := &stats{}
	var w workload[R]
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		var err error
		if w, err = newW(); err != nil {
			return nil, nil, nil, err
		}
		res, err := w.op(ctx, 0)
		setups = append(setups, time.Since(start).Seconds())
		if err == nil {
			_, err = w.check(0, res)
		}
		if err != nil {
			st.attempted++
			st.fail("warm-up op", err)
		}
	}
	return w, setups, st, nil
}

// measureUntraced runs whole cycles of ops until d has passed.
func measureUntraced[R any](ctx context.Context, w workload[R], cyc *cycler, d time.Duration, st *stats) {
	start := time.Now()
	for time.Since(start) < d {
		for _, v := range cyc.next() {
			st.attempted++
			before := readRuntime()
			t0 := time.Now()
			res, err := w.op(ctx, v)
			wall := time.Since(t0)
			used := readRuntime().sub(before)
			st.timed += wall
			var ir float64
			if err == nil {
				ir, err = w.check(v, res)
			}
			if err != nil {
				st.fail(fmt.Sprintf("op on variant %d", v), err)
				continue
			}
			st.opMS = append(st.opMS, ms(wall))
			st.heap.add(used)
			st.irDropMV = append(st.irDropMV, ir)
		}
	}
}

// measureTraced runs whole cycles until d has passed. Each op runs
// untraced and is checked, and is rebuilt under tr; the rebuild must
// match the untraced result.
func measureTraced[R any](ctx context.Context, w workload[R], cyc *cycler, d time.Duration, tr *sprout.Tracer, st *stats) {
	tctx := sprout.WithTracer(ctx, tr)
	start := time.Now()
	for time.Since(start) < d {
		for _, v := range cyc.next() {
			st.attempted++
			if err := tracedOp(ctx, tctx, w, v, st); err != nil {
				st.fail(fmt.Sprintf("op on variant %d", v), err)
			}
		}
	}
}

// tracedOp runs op v untraced and traced. Every other op runs the traced
// rebuild first, so that neither side always inherits the other's heap
// and caches and trace.overhead_ms is not biased by the order.
func tracedOp[R any](ctx, tctx context.Context, w workload[R], v int, st *stats) error {
	var want, got R
	var wall, traced time.Duration
	var opErr, rebuildErr error
	untraced := func() {
		t0 := time.Now()
		want, opErr = w.op(ctx, v)
		wall = time.Since(t0)
	}
	rebuild := func() {
		octx, sp := obs.StartSpan(tctx, spanOp, obs.A("variant", v))
		before := readRuntime()
		t0 := time.Now()
		got, rebuildErr = w.rebuild(octx, v)
		traced = time.Since(t0)
		st.traced.add(readRuntime().sub(before))
		sp.Fail(rebuildErr)
		sp.End()
	}
	st.rebuilds++
	if st.rebuilds%2 == 0 {
		rebuild()
		untraced()
	} else {
		untraced()
		rebuild()
	}
	if opErr != nil {
		return opErr
	}
	if _, err := w.check(v, want); err != nil {
		return err
	}
	if rebuildErr != nil {
		return fmt.Errorf("traced rebuild: %w", rebuildErr)
	}
	if err := w.same(want, got); err != nil {
		return fmt.Errorf("traced rebuild differs from the untraced op: %w", err)
	}
	st.opMS = append(st.opMS, ms(wall))
	st.tracedMS = append(st.tracedMS, ms(traced))
	return nil
}

// endToEnd turns an untraced run into the end-to-end metrics.
func endToEnd(st *stats, setups []float64) (*report, error) {
	n := len(st.opMS)
	if n == 0 {
		return nil, fmt.Errorf("no op passed its checks (%d attempted, %d failed)", st.attempted, st.failed)
	}
	r := newReport(st)
	sorted := sortedCopy(st.opMS)
	p, tailMS, beyond := tail(sorted, minTailBeyond)
	r.set("setup_s", median(setups))
	r.set("op_ms_p50", median(sorted))
	r.set("op_ms_tail", tailMS)
	r.set("ops_per_s", float64(n)/st.timed.Seconds())
	r.set("alloc_mb_per_op", float64(st.heap.bytes)/1e6/float64(n))
	r.set("allocs_per_op", float64(st.heap.objects)/float64(n))
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	r.set("peak_rss_mb", rss)
	r.set("ir_drop_mv", mean(st.irDropMV))
	r.set("ok_frac", float64(st.attempted-st.failed)/float64(st.attempted))
	r.notes = append(r.notes,
		fmt.Sprintf("op_ms_tail is p%d of %d ops, %d ops beyond it", p, n, beyond),
		fmt.Sprintf("fail_frac %d/%d = %g", st.failed, st.attempted, float64(st.failed)/float64(st.attempted)))
	return r, nil
}

// minTailBeyond is how many samples must lie beyond op_ms_tail.
const minTailBeyond = 10

// tail returns the highest whole percentile p whose nearest-rank value
// in sorted has at least minBeyond samples above it, that value, and
// the number of samples beyond it. With minBeyond or fewer samples no
// percentile qualifies, and the maximum is returned as p100.
func tail(sorted []float64, minBeyond int) (p int, v float64, beyond int) {
	n := len(sorted)
	for p = 99; p >= 1; p-- {
		k := (p*n + 99) / 100 // nearest rank: ceil(p*n/100)
		if k >= 1 && n-k >= minBeyond {
			return p, sorted[k-1], n - k
		}
	}
	return 100, sorted[n-1], 0
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// runtimeUse is a reading, or a difference of readings, of the Go
// runtime's cumulative counters.
type runtimeUse struct {
	bytes, objects, gcCycles uint64
	gcCPUSeconds             float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

// readRuntime reads the runtime counters into a shared sample buffer, so
// only the benchmark's main goroutine calls it.
func readRuntime() runtimeUse {
	metrics.Read(runtimeSamples)
	return runtimeUse{
		bytes:        runtimeSamples[0].Value.Uint64(),
		objects:      runtimeSamples[1].Value.Uint64(),
		gcCycles:     runtimeSamples[2].Value.Uint64(),
		gcCPUSeconds: runtimeSamples[3].Value.Float64(),
	}
}

func (u runtimeUse) sub(v runtimeUse) runtimeUse {
	return runtimeUse{
		bytes:        u.bytes - v.bytes,
		objects:      u.objects - v.objects,
		gcCycles:     u.gcCycles - v.gcCycles,
		gcCPUSeconds: u.gcCPUSeconds - v.gcCPUSeconds,
	}
}

func (u *runtimeUse) add(v runtimeUse) {
	u.bytes += v.bytes
	u.objects += v.objects
	u.gcCycles += v.gcCycles
	u.gcCPUSeconds += v.gcCPUSeconds
}

// peakRSSMB is the peak resident set of this process in MB (1e6 bytes).
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	return float64(ru.Maxrss) * 1024 / 1e6, nil // Linux reports KiB
}
