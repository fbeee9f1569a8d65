package route

import (
	"context"
	"errors"
	"math"
	"testing"

	"sprout/internal/faultinject"
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

func TestSeedOnlyProducesConnectedRoute(t *testing.T) {
	avail, terms := obstacleSpace(t)
	res, err := SeedOnly(context.Background(), avail, terms, Config{DX: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shape.Empty() {
		t.Fatal("seed-only route must produce copper")
	}
	if !res.Graph.TerminalsConnected(res.Members) {
		t.Fatal("seed-only route must connect the terminals")
	}
	if math.IsNaN(res.Resistance) {
		t.Fatal("healthy seed must carry metrics")
	}
	full, err := RouteCtx(context.Background(), avail, terms, Config{DX: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shape.Area() >= full.Shape.Area() {
		t.Fatalf("seed area %d should be smaller than the grown route %d",
			res.Shape.Area(), full.Shape.Area())
	}
}
