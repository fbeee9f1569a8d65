package route

import (
	"context"
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"

	"sprout/internal/faultinject"
	"sprout/internal/geom"
)

func TestConfigValidateRejectsBadValues(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"negative DX", Config{DX: -5}},
		{"negative DY", Config{DX: 5, DY: -5}},
		{"negative AreaMax", Config{AreaMax: -100}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.cfg.Validate(); err == nil {
				t.Fatalf("%s must be rejected", tc.name)
			}
			avail, terms := obstacleSpace(t)
			if _, err := RouteCtx(context.Background(), avail, terms, tc.cfg); err == nil {
				t.Fatalf("Route must reject %s", tc.name)
			}
		})
	}
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config is valid, got %v", err)
	}
}

func TestRouteCancelledBeforeStart(t *testing.T) {
	avail, terms := obstacleSpace(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RouteCtx(ctx, avail, terms, Config{DX: 5}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestRouteCancelledMidGrowStopsWithinOneIteration(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	avail, terms := obstacleSpace(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Cancel from inside the second grow iteration: the pipeline must
	// notice before starting a third.
	faultinject.Arm(faultinject.SiteGrow, 2, func() error {
		cancel()
		return nil
	})
	_, err := RouteCtx(ctx, avail, terms, Config{DX: 5, GrowNodes: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if calls := faultinject.Calls(faultinject.SiteGrow); calls > 3 {
		t.Fatalf("grow ran %d iterations after cancellation, want prompt abort", calls)
	}
}

func TestRouteCancelledMidRefine(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	avail, terms := obstacleSpace(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	faultinject.Arm(faultinject.SiteRefine, 1, func() error {
		cancel()
		return nil
	})
	_, err := RouteCtx(ctx, avail, terms, Config{DX: 5})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestFailedRouteReturnsSeed pins the per-rail degradation contract: a
// pipeline that fails after its seed returns the error together with the
// seed-only route, equal bit for bit to the seed mask scored by a cold
// evaluation on the same graph. Solver faults on every CG call fail the
// seed's own nodal analysis on a strip too long for the dense fallback,
// so that route carries a NaN resistance.
func TestFailedRouteReturnsSeed(t *testing.T) {
	defer faultinject.Reset()
	avail, terms := obstacleSpace(t)
	strip := geom.RegionFromRect(geom.R(0, 0, 2200, 1))
	stripTerms := []Terminal{
		{Name: "S", Shape: geom.RegionFromRect(geom.R(0, 0, 1, 1)), Current: 1},
		{Name: "T", Shape: geom.RegionFromRect(geom.R(2199, 0, 2200, 1)), Current: 1},
	}
	injected := errors.New("injected fault")
	for _, tc := range []struct {
		name  string
		site  string // armed on every call; "" arms nothing
		avail geom.Region
		terms []Terminal
		cfg   Config
	}{
		{"budget below seed", "", avail, terms, Config{DX: 5, AreaMax: 10}},
		{"grow fault", faultinject.SiteGrow, avail, terms, Config{DX: 5}},
		{"refine fault", faultinject.SiteRefine, avail, terms, Config{DX: 5}},
		{"seed solve fault", faultinject.SiteCG, strip, stripTerms, Config{DX: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			faultinject.Reset()
			if tc.site != "" {
				faultinject.Arm(tc.site, 0, func() error { return injected })
			}
			ctx := context.Background()
			got, err := RouteCtx(ctx, tc.avail, tc.terms, tc.cfg)
			if err == nil {
				t.Fatal("the pipeline must fail")
			}
			if got == nil {
				t.Fatalf("no seed-only route with the failure %v", err)
			}
			cfg := tc.cfg.WithDefaults()
			tg, err := BuildTileGraph(tc.avail, tc.terms, cfg.DX, cfg.DY)
			if err != nil {
				t.Fatal(err)
			}
			members, err := tg.Seed()
			if err != nil {
				t.Fatal(err)
			}
			warm := NewSolveCache()
			want := &Result{Resistance: math.NaN()}
			if m, merr := tg.NodeCurrentsCtx(ctx, members, warm); merr == nil {
				want.Resistance, want.PairResistance = m.Resistance, m.PairResistance
			}
			if math.IsNaN(want.Resistance) != (tc.site == faultinject.SiteCG) {
				t.Fatalf("seed resistance %v: NaN only when every CG solve fails", want.Resistance)
			}
			if !got.Shape.Equal(tg.Union(members)) || !slices.Equal(got.Members, members) {
				t.Fatal("degraded route is not the seed mask")
			}
			if got.Graph == nil || !got.Graph.TerminalsConnected(got.Members) {
				t.Fatal("degraded route must connect the terminals")
			}
			if math.Float64bits(got.Resistance) != math.Float64bits(want.Resistance) {
				t.Fatalf("resistance %v, want %v", got.Resistance, want.Resistance)
			}
			if !slices.EqualFunc(got.PairResistance, want.PairResistance, func(a, b float64) bool {
				return math.Float64bits(a) == math.Float64bits(b)
			}) {
				t.Fatalf("pair resistances %v, want %v", got.PairResistance, want.PairResistance)
			}
			if !reflect.DeepEqual(got.Solve, warm.stats) {
				t.Fatalf("solve stats %+v, want the seed evaluation's %+v", got.Solve, warm.stats)
			}
			seed := IterRecord{Stage: "seed", Nodes: MemberCount(members), Area: tg.MembersArea(members), Resistance: want.Resistance}
			if len(got.Trace) != 1 {
				t.Fatalf("trace has %d records, want the seed's alone", len(got.Trace))
			}
			if rec := got.Trace[0]; rec.Stage != seed.Stage || rec.Nodes != seed.Nodes || rec.Area != seed.Area ||
				math.Float64bits(rec.Resistance) != math.Float64bits(seed.Resistance) {
				t.Fatalf("trace %+v, want %+v", rec, seed)
			}
		})
	}

	// The seed is what grow and refine improve on: a smaller shape than
	// the full route of the same space.
	faultinject.Reset()
	full, err := RouteCtx(context.Background(), avail, terms, Config{DX: 5})
	if err != nil {
		t.Fatal(err)
	}
	if seed := full.Trace[0]; seed.Area >= full.Shape.Area() {
		t.Fatalf("seed area %d should be smaller than the grown route %d", seed.Area, full.Shape.Area())
	}
}
