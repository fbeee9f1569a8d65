// Command perfbench is the repository benchmark. It routes whole boards
// (sprout.RouteBoardCtx) and order sweeps (sprout.ExploreNetOrdersCtx)
// in a closed loop with one client, checks every result, and prints one
// JSON object as the last line of standard output: the end-to-end
// metrics of an untraced run (--trace 0), or the per-layer metrics of a
// traced run that rebuilds each op out of the layer calls (--trace 1).
// The metric names, units and bounds are declared in BENCHMARK.json at
// the repository root; NOTES.md explains the workloads and metrics.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload sixrail --seed 1 --seconds 25 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"sprout"
)

// workloadNames lists the workloads in the order BENCHMARK.json declares.
var workloadNames = []string{"sixrail", "tworail-fine", "threerail-explore"}

type config struct {
	workload string
	seed     uint64
	run      time.Duration
	trace    bool
	// traceOut is the directory the traced run writes its spans to.
	traceOut string
}

// root is the repository root, where the pinned outcomes are read from:
// the benchmark runs from there.
const root = "."

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed that orders each cycle of input variants")
	seconds := flag.Float64("seconds", 10, "wall time to measure; the run ends at the first cycle boundary after it")
	trace := flag.Int("trace", 0, "0: end-to-end metrics of an untraced run; 1: per-layer metrics of a traced run")
	flag.StringVar(&cfg.traceOut, "trace-out", ".", "directory the traced run writes its spans to")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	}
	if *seconds <= 0 {
		fail(fmt.Errorf("--seconds must be positive, got %g", *seconds))
	}
	cfg.trace = *trace == 1
	cfg.run = time.Duration(*seconds * float64(time.Second))

	runtime.GOMAXPROCS(runtime.NumCPU())
	rep, err := run(context.Background(), cfg)
	if err != nil {
		fail(err)
	}
	if err := rep.print(os.Stdout, cfg.workload); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

func run(ctx context.Context, cfg config) (*report, error) {
	switch cfg.workload {
	case "sixrail":
		return runWorkload(ctx, cfg, func() (workload[*sprout.BoardResult], error) { return sixRail(root) })
	case "tworail-fine":
		return runWorkload(ctx, cfg, func() (workload[*sprout.BoardResult], error) { return twoRailFine(root) })
	case "threerail-explore":
		return runWorkload(ctx, cfg, func() (workload[*sprout.OrderExploration], error) { return threeRailExplore(root) })
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames, ", "))
}

// runWorkload sets the workload up, measures it for cfg.run and returns
// the metrics of the requested mode.
func runWorkload[R any](ctx context.Context, cfg config, newW func() (workload[R], error)) (*report, error) {
	w, setups, st, err := setUp(ctx, newW)
	if err != nil {
		return nil, err
	}
	cyc := newCycler(cfg.seed, w.variants())
	if !cfg.trace {
		measureUntraced(ctx, w, cyc, cfg.run, st)
		return endToEnd(st, setups)
	}
	tr := sprout.NewTracer()
	measureTraced(ctx, w, cyc, cfg.run, tr, st)
	rep, err := perLayer(w, tr, st)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.traceOut, fmt.Sprintf("perfbench-%s-seed%d.trace.json", cfg.workload, cfg.seed))
	if err := tr.WriteChromeTraceFile(path); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	return rep, nil
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line plus the notes printed above it.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	notes     []string
}

func newReport(st *stats) *report {
	return &report{
		Correct:   st.failed == 0,
		Attempted: st.attempted,
		Failed:    st.failed,
		Metrics:   map[string]metric{},
	}
}

// print writes one human-readable line per metric and note, then the
// JSON result as the last line.
func (r *report) print(f *os.File, workload string) error {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(f, "%-18s %-28s %14.6g %s\n", workload, name, m.Value, m.Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(f, "%-18s %s\n", workload, n)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintln(f, string(line))
	return err
}
