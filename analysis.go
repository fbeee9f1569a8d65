package sprout

import (
	"context"
	"fmt"

	"sprout/internal/board"
	"sprout/internal/extract"
	"sprout/internal/obs"
	"sprout/internal/route"
	"sprout/internal/thermal"
)

// DCResult bundles the distributed-load DC and thermal view of one routed
// rail: the IR-drop field under the paper's §III-C loading model plus the
// steady-state temperature-rise map (§I, Table I lists current density and
// temperature among power-routing constraints).
type DCResult struct {
	Operating *extract.OperatingPoint
	Thermal   *thermal.Map
	// MinLoadVoltage is VSupply minus the worst load drop.
	MinLoadVoltage float64
}

// RailDC solves the DC operating point without tracing support; see
// RailDCCtx.
func RailDC(b *board.Board, layer int, rail RailResult, vSupply float64) (*DCResult, error) {
	return RailDCCtx(context.Background(), b, layer, rail, vSupply)
}

// RailDCCtx solves the rail's DC operating point (PMIC sources the net
// current, every other terminal group sinks its weighted share) and the
// resulting thermal map. vSupply scales the reported minimum voltage. The
// DC solve and the thermal simulation each run under a tracing span, and
// context cancellation aborts either solve.
func RailDCCtx(ctx context.Context, b *board.Board, layer int, rail RailResult, vSupply float64) (*DCResult, error) {
	if rail.Route == nil {
		if rail.Diag.Err != nil {
			return nil, fmt.Errorf("sprout: rail %s has no route (failed rail: %w)", rail.Name, rail.Diag.Err)
		}
		return nil, fmt.Errorf("sprout: rail %s has no route", rail.Name)
	}
	net, err := b.Net(rail.Net)
	if err != nil {
		return nil, err
	}
	terms := railTerminals(b, rail.Net, layer)
	var source *route.Terminal
	var loads []route.Terminal
	for i, g := range b.GroupsOn(rail.Net, layer) {
		if g.Kind == board.KindPMIC && source == nil {
			source = &terms[i]
			continue
		}
		loads = append(loads, terms[i])
	}
	if source == nil {
		return nil, fmt.Errorf("sprout: net %s has no PMIC group on layer %d", net.Name, layer)
	}
	if len(loads) == 0 {
		return nil, fmt.Errorf("sprout: net %s has no load groups on layer %d", net.Name, layer)
	}
	totalA := net.Current
	if totalA <= 0 {
		totalA = 1
	}
	layerInfo := b.Stackup.Layer(layer)
	exOpt := extract.Options{
		SheetOhms: layerInfo.SheetResistance(),
		HeightUM:  b.Stackup.DistanceToPlaneUM(layer),
	}
	shape := rail.Route.Shape.Union(termPads(terms))
	dcCtx, dcSp := obs.StartSpan(ctx, "DCOperate", obs.A("net", net.Name))
	op, err := extract.DCOperate(dcCtx, shape, *source, loads, totalA, exOpt)
	dcSp.Fail(err)
	dcSp.End()
	if err != nil {
		return nil, fmt.Errorf("sprout: net %s DC: %w", net.Name, err)
	}
	thCtx, thSp := obs.StartSpan(ctx, "Thermal", obs.A("net", net.Name))
	tm, err := thermal.Simulate(thCtx, op, exOpt.SheetOhms, thermal.Options{CopperUM: layerInfo.CopperUM})
	thSp.Fail(err)
	thSp.End()
	if err != nil {
		return nil, fmt.Errorf("sprout: net %s thermal: %w", net.Name, err)
	}
	return &DCResult{
		Operating:      op,
		Thermal:        tm,
		MinLoadVoltage: vSupply - op.MaxDropV,
	}, nil
}
