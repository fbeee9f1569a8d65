package sprout

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"sprout/internal/board"
	"sprout/internal/ckt"
	"sprout/internal/drc"
	"sprout/internal/extract"
	"sprout/internal/geom"
	"sprout/internal/manual"
	"sprout/internal/obs"
	"sprout/internal/route"
	"sprout/internal/sparse"
)

// Re-exported names so downstream users interact with one import.
type (
	// Board is the routing problem description (outline, stackup, nets,
	// terminal groups, obstacles, design rules).
	Board = board.Board
	// Net is one power rail.
	Net = board.Net
	// NetID identifies a rail.
	NetID = board.NetID
	// TerminalGroup is an electrically common pad cluster.
	TerminalGroup = board.TerminalGroup
	// Stackup is the layer stack.
	Stackup = board.Stackup
	// Layer is one metal layer.
	Layer = board.Layer
	// DesignRules are the clearance and tiling rules.
	DesignRules = board.DesignRules
	// RouteConfig tunes the SPROUT pipeline.
	RouteConfig = route.Config
	// RouteResult is a routed net.
	RouteResult = route.Result
	// ExtractReport is an extracted impedance report.
	ExtractReport = extract.Report
	// PDNModel is the lumped rail model for transient analysis.
	PDNModel = ckt.PDNModel
	// Decap is a decoupling capacitor model.
	Decap = ckt.Decap
	// Tracer is the observability tracer; attach one to the context with
	// WithTracer to record spans, events, counters and histograms.
	Tracer = obs.Tracer
	// SolveStats summarizes solver-fallback-ladder telemetry.
	SolveStats = sparse.SolveStats
	// RunReport is the machine-readable run summary embedded in results.
	RunReport = obs.RunReport
)

// NewTracer returns an enabled tracer (see the obs package for options).
func NewTracer() *Tracer { return obs.New() }

// WithTracer attaches a tracer to the context so RouteBoardCtx (and every
// pipeline stage under it) records spans and solver telemetry.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	return obs.WithTracer(ctx, t)
}

// NewBoard validates and constructs a Board.
func NewBoard(name string, outline geom.Rect, stackup Stackup, rules DesignRules) (*Board, error) {
	return board.New(name, outline, stackup, rules)
}

// DefaultDecap returns a typical 10 µF MLCC decoupling capacitor model.
func DefaultDecap() Decap { return ckt.DefaultDecap() }

// Profile is a swept PDN impedance profile Z(f).
type Profile = ckt.Profile

// TargetMask is a piecewise impedance limit |Z(f)| <= mask(f).
type TargetMask = ckt.TargetMask

// MaskReport is the outcome of checking a profile against a target mask.
type MaskReport = ckt.MaskReport

// RailProfile sweeps the impedance profile of an extracted rail with its
// decaps from fMin to fMax (log spaced, pointsPerDecade samples) — the
// quantity the paper's Fig. 1 flow compares against the target impedance.
func RailProfile(rep *extract.Report, net board.Net, decaps []ckt.Decap, fMin, fMax float64, pointsPerDecade int) (Profile, error) {
	if rep == nil {
		return nil, fmt.Errorf("sprout: nil extraction report")
	}
	iload := net.Current
	if iload <= 0 {
		iload = 1
	}
	slew := net.SlewTimeNS
	if slew <= 0 {
		slew = 1
	}
	model := ckt.PDNModel{
		VSupply: 1,
		ROhms:   rep.ResistanceOhms,
		LHenry:  rep.InductancePH * 1e-12,
		Decaps:  decaps,
		ILoad:   iload,
		SlewNS:  slew,
	}
	return model.ImpedanceProfile(fMin, fMax, pointsPerDecade)
}

// TargetImpedance builds the flat Vdd·ripple/Imax target mask.
func TargetImpedance(vdd, ripplePct, iMax float64) (TargetMask, error) {
	return ckt.TargetFromRLC(vdd, ripplePct, iMax)
}

// Violation is a design-rule audit finding.
type Violation = drc.Violation

// DRCLimits configures the Audit checks.
type DRCLimits = drc.Limits

// Audit runs the design-rule audit over a routed board: clearance,
// containment, blockages, terminal connectivity, minimum width, area
// budgets and current density. Zero-valued limits inherit the board's
// rules (clearance) and a budget slack of one tile of the graph the rails
// were routed on (Alg. 1 Δx·Δy).
func Audit(res *BoardResult, lim DRCLimits) []Violation {
	if lim.Clearance == 0 {
		lim.Clearance = res.Board.Rules.Clearance
	}
	var shapes []drc.Shape
	avail := map[string]geom.Region{}
	for _, rail := range res.Rails {
		if rail.Route == nil {
			continue // unrouted rail: nothing to audit
		}
		if lim.BudgetSlack == 0 {
			lim.BudgetSlack = rail.Route.Graph.DX * rail.Route.Graph.DY
		}
		s := drc.Shape{
			Net:       rail.Name,
			Copper:    rail.Route.Shape,
			Terminals: railTerminals(res.Board, rail.Net, res.Layer),
			Budget:    rail.Budget,
		}
		if rail.Extract != nil {
			s.MaxCurrentDensity = rail.Extract.MaxCurrentDensity
		}
		shapes = append(shapes, s)
		avail[rail.Name] = res.Board.AvailableSpace(rail.Net, res.Layer)
	}
	sort.Slice(shapes, func(i, j int) bool { return shapes[i].Net < shapes[j].Net })
	blockages := geom.EmptyRegion()
	for _, o := range res.Board.Obstacle {
		if o.Layer == res.Layer {
			blockages = blockages.Union(o.Shape)
		}
	}
	return drc.Audit(shapes, avail, blockages, lim)
}

// RailDiag records what went wrong (if anything) while routing one rail.
// With RouteOptions.FailFast disabled, a failing rail does not abort the
// board: the failure lands here and the board result still carries every
// other rail.
type RailDiag struct {
	// Err is the failure that prevented the full pipeline (or its
	// extraction / manual baseline) from completing for this rail. Nil for
	// a healthy rail.
	Err error
	// Degraded marks a rail whose Route is the seed-only fallback (paper
	// Alg. 2) because the full grow/refine pipeline failed.
	Degraded bool
}

// Failed reports whether the rail recorded any failure.
func (d RailDiag) Failed() bool { return d.Err != nil }

// RailResult bundles everything produced for one routed rail.
type RailResult struct {
	Net    board.NetID
	Name   string
	Budget int64
	// Route is the SPROUT synthesis result. With FailFast disabled it may
	// be the degraded seed-only route (Diag.Degraded) or nil when even the
	// seed stage failed (Diag.Err then says why).
	Route *route.Result
	// Extract is the impedance report of the SPROUT shape (nil when
	// extraction was skipped or failed; see Diag).
	Extract *extract.Report
	// Manual and ManualExtract hold the manual-baseline comparison when
	// requested (paper Tables II-III).
	Manual        *manual.Result
	ManualExtract *extract.Report
	// Solve summarizes the solver-fallback-ladder telemetry across every
	// nodal analysis of this rail's pipeline — successful solves included,
	// so escalations that recovered are still visible.
	Solve SolveStats
	// Diag carries this rail's failure record.
	Diag RailDiag
}

// BoardResult is the output of RouteBoard.
type BoardResult struct {
	Board *board.Board
	Layer int
	Rails []RailResult
	// Report is the machine-readable run summary: per-rail stage
	// durations, solver telemetry, impedance, and degradation flags
	// (plus tracer metrics when the run was traced).
	Report *obs.RunReport
}

// FailedRails lists the rails that recorded a failure (degraded or
// unrouted).
func (r *BoardResult) FailedRails() []RailResult {
	var out []RailResult
	for _, rail := range r.Rails {
		if rail.Diag.Failed() {
			out = append(out, rail)
		}
	}
	return out
}

// RouteOptions configures a board-level routing run.
type RouteOptions struct {
	// Layer is the routing layer (1-indexed).
	Layer int
	// Budgets maps each net to its metal-area budget A_max. Nets without
	// an entry use the router default (4x seed area).
	Budgets map[board.NetID]int64
	// Config tunes the per-net SPROUT pipeline; AreaMax inside it is
	// overridden by Budgets.
	Config route.Config
	// WithManual also routes each rail with the manual-designer baseline
	// at the same area budget and extracts it.
	WithManual bool
	// ExtractPitch overrides the extraction re-tiling pitch (0 = default).
	ExtractPitch int64
	// SkipExtract disables impedance extraction (routing-only runs).
	SkipExtract bool
	// Order overrides the sequential routing order (default: net id
	// order). Earlier nets get first claim on the shared space.
	Order []board.NetID
	// FailFast aborts RouteBoard on the first rail failure, restoring the
	// historical all-or-nothing behavior. When false (the default), a
	// failing rail degrades to its seed-only route (or is skipped when even
	// the seed fails), the failure is recorded in the rail's Diag, and the
	// remaining rails are still routed. Context cancellation always aborts
	// regardless of this switch.
	FailFast bool
	// ExploreWorkers bounds the order explorer's worker pool (0 =
	// runtime.GOMAXPROCS(0)). Only ExploreNetOrdersCtx reads it.
	ExploreWorkers int
	// ExploreAllOrders explores every permutation regardless of net count
	// (the default switches to rotations above four nets). Combine with
	// ExploreMaxOrders to bound the sweep.
	ExploreAllOrders bool
	// ExploreMaxOrders truncates the enumeration after this many orders
	// (0 = unbounded). Orders are enumerated deterministically, so a
	// truncated sweep is a reproducible prefix of the full one.
	ExploreMaxOrders int
	// ExploreCheckpointEvery emits a durable checkpoint of the
	// explorer's frontier after every N settled orders (0 = never). A
	// later run handed the checkpoint via ExploreResume replays the
	// settled prefix verbatim and routes only the remainder, plus the
	// winning order again when it is one of the settled ones.
	ExploreCheckpointEvery int
	// ExploreCheckpointSink receives each emitted checkpoint. Sink
	// failures are counted but never fail the sweep — a checkpoint is an
	// optimization, not a correctness dependency.
	ExploreCheckpointSink func(*ExploreCheckpoint) error
	// ExploreResume seeds the sweep from a previously emitted checkpoint.
	// A checkpoint whose fingerprint does not match the current board,
	// options, and enumeration is rejected (counted, logged) and the
	// sweep restarts from scratch.
	ExploreResume *ExploreCheckpoint
}

// RouteBoard synthesizes every net of the board without cancellation
// support; see RouteBoardCtx.
func RouteBoard(b *board.Board, opt RouteOptions) (*BoardResult, error) {
	return RouteBoardCtx(context.Background(), b, opt)
}

// RouteBoardCtx synthesizes every net of the board on the chosen layer,
// sequentially: once a rail is routed, its copper (plus clearance) is
// removed from the available space of the remaining rails (paper §II-G:
// "it is crucial to remove the routed polygon from the available space of
// other nets"). Nets are processed in id order.
//
// Failure semantics: internal panics are converted to *PanicError; a
// cancelled or expired context aborts with ctx.Err(); and unless
// opt.FailFast is set, a rail whose pipeline fails is isolated — degraded
// to its seed-only route where possible — with the failure recorded in
// its RailResult.Diag. An error is returned only when no rail routed at
// all.
func RouteBoardCtx(ctx context.Context, b *board.Board, opt RouteOptions) (result *BoardResult, err error) {
	defer recoverToError(&err)
	start := time.Now()
	ctx, rootSp := obs.StartSpan(ctx, "RouteBoard",
		obs.A("board", b.Name), obs.A("layer", opt.Layer))
	defer func() {
		rootSp.Fail(err)
		rootSp.End()
	}()
	run, err := newBoardRun(b, opt)
	if err != nil {
		return nil, err
	}
	nets, err := resolveOrder(b, opt.Order)
	if err != nil {
		return nil, err
	}
	state := newRouteState()
	for _, net := range nets {
		state, _, err = run.routeNext(ctx, state, net, nil)
		if err != nil {
			return nil, err
		}
	}
	return run.finalize(ctx, state, start)
}

// isCtxErr reports whether err stems from context cancellation or
// deadline expiry — failures that must abort the whole board rather than
// degrade a rail.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// railTerminals converts a net's terminal groups on the layer into routing
// terminals, in GroupsOn order.
func railTerminals(b *board.Board, net board.NetID, layer int) []route.Terminal {
	groups := b.GroupsOn(net, layer)
	terms := make([]route.Terminal, 0, len(groups))
	for _, g := range groups {
		terms = append(terms, route.Terminal{
			Name:    g.Name,
			Shape:   g.Shape(),
			Current: g.Current,
		})
	}
	return terms
}

// termPads returns the union of the terminals' shapes, built in one pass
// over their rectangles.
func termPads(terms []route.Terminal) geom.Region {
	var rects []geom.Rect
	for _, t := range terms {
		rects = t.Shape.AppendRects(rects)
	}
	return geom.RegionFromRects(rects)
}

// RailAnalysis is the Fig. 12c/d system-level view of one extracted rail.
type RailAnalysis struct {
	MinLoadVoltage float64 // volts (Fig. 12c)
	EffLInductPH   float64 // effective inductance @ 25 MHz incl. decaps (Fig. 12b)
	DelayNorm      float64 // normalized FinFET propagation delay (Fig. 12d)
	PowerNorm      float64 // normalized dynamic power at the minimum voltage
}

// AnalyzeRail runs the transient and AC PDN analysis for an extracted rail
// using the paper's modelling chain: extracted R/L + decaps + ramped load,
// then the 32 nm FinFET guideline at the minimum load voltage.
func AnalyzeRail(rep *extract.Report, net board.Net, vSupply float64, decaps []ckt.Decap) (*RailAnalysis, error) {
	if rep == nil {
		return nil, fmt.Errorf("sprout: nil extraction report")
	}
	model := ckt.PDNModel{
		VSupply: vSupply,
		ROhms:   rep.ResistanceOhms,
		LHenry:  rep.InductancePH * 1e-12,
		Decaps:  decaps,
		ILoad:   net.Current,
		SlewNS:  net.SlewTimeNS,
		// A 100 nF package-level capacitance: enough to damp the numerical
		// ringing but small enough that the board-level inductance governs
		// the droop, as in the paper's Fig. 12c study.
		CLoadF:   100e-9,
		CLoadESR: 0.005,
	}
	vmin, err := model.MinLoadVoltage()
	if err != nil {
		return nil, fmt.Errorf("sprout: rail %s transient: %w", net.Name, err)
	}
	leff, err := model.EffectiveInductancePH(25e6)
	if err != nil {
		return nil, fmt.Errorf("sprout: rail %s AC: %w", net.Name, err)
	}
	fin := ckt.DefaultFinFET()
	delay, err := fin.Delay(vmin)
	if err != nil {
		return nil, fmt.Errorf("sprout: rail %s delay: %w", net.Name, err)
	}
	return &RailAnalysis{
		MinLoadVoltage: vmin,
		EffLInductPH:   leff,
		DelayNorm:      delay,
		PowerNorm:      fin.DynamicPower(vmin),
	}, nil
}
